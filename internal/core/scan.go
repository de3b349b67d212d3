// Package core implements the paper's parallel MPEG-2 decoder: a scan
// process that indexes the stream by startcodes, a pool of worker
// processes consuming either GOP-level tasks (coarse grain) or slice-level
// tasks from a 2-D picture/slice queue (fine grain, in simple and improved
// variants), and a display process that reorders decoded pictures into
// display order.
package core

import (
	"fmt"
	"time"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/vlc"
)

// SliceRange locates one slice's bytes within the stream.
type SliceRange struct {
	Row    int
	Offset int // byte offset of the slice startcode
	End    int // byte offset one past the slice data
	// Bytes is the slice's compressed size (End-Offset). Variable-length
	// decode time is proportional to bits consumed, so this is the
	// scheduler's per-slice cost estimate. It is invariant under offset
	// rebasing, so batch and streaming consumers see the same value.
	Bytes int
}

// PictureRange locates one picture and its slices.
type PictureRange struct {
	Offset      int // byte offset of the picture startcode
	End         int
	Type        vlc.PictureCoding
	TemporalRef int
	Slices      []SliceRange
	// Damaged marks a picture whose header prefix was unreadable at scan
	// time (bad coding type or truncation). Only the lenient scan
	// produces damaged pictures; the strict scan fails instead.
	Damaged bool
}

// ScanDamage counts structural corruption the lenient scan tolerated.
type ScanDamage struct {
	DamagedPictures int // unreadable picture-header prefixes
	BadHeaders      int // sequence/GOP headers that failed to parse
	OrphanSlices    int // slices outside any picture
}

// Any reports whether the scan saw structural damage.
func (d ScanDamage) Any() bool {
	return d.DamagedPictures != 0 || d.BadHeaders != 0 || d.OrphanSlices != 0
}

// GOPRange locates one group of pictures. The range starts at the
// repeated sequence header if one precedes the GOP header.
type GOPRange struct {
	Offset       int
	End          int
	FirstDisplay int // display index of the GOP's first picture
	Closed       bool
	Pictures     []PictureRange
}

// StreamMap is the product of the scan process: the structural index that
// makes task-level parallel decode possible without decoding.
type StreamMap struct {
	Seq           mpeg2.SequenceHeader
	GOPs          []GOPRange
	TotalPictures int
	ScanTime      time.Duration
	Bytes         int
	// Damage is populated by ScanLenient; the strict Scan leaves it zero
	// (it fails on the conditions Damage would count).
	Damage ScanDamage
}

// ScanRate returns the scan throughput in pictures per second.
func (m *StreamMap) ScanRate() float64 {
	if m.ScanTime <= 0 {
		return 0
	}
	return float64(m.TotalPictures) / m.ScanTime.Seconds()
}

// scanHeaderSpan bounds how many bytes past a startcode a header parse
// may examine. MPEG-2 sequence and GOP headers (including quantizer
// matrices and the sequence extension) fit in well under this span; the
// bound exists so the batch and streaming scanners see the identical
// byte window on arbitrarily corrupted input, where an unbounded parse
// could otherwise chase a fake matrix flag across the whole stream.
const scanHeaderSpan = 512

// ScanAheadBytes is how far past a startcode the incremental scanner
// must have buffered before the startcode can be processed with results
// identical to the batch scan (header span plus the 4-byte code itself).
const ScanAheadBytes = scanHeaderSpan + 4

// Scan indexes the stream: it finds every startcode, parses the sequence
// header and the cheap picture-header prefix (temporal reference and
// type), and groups pictures and slices into GOPs. This is exactly the
// work the paper's dedicated scan process performs. Structural damage is
// a hard error; see ScanLenient for the error-resilient variant.
func Scan(data []byte) (*StreamMap, error) { return scan(data, false) }

// ScanLenient indexes a possibly damaged stream. Unparseable repeated
// sequence headers and GOP headers are skipped, unreadable picture
// headers produce Damaged picture ranges (so the resilience ladder can
// substitute them), and orphan slices are dropped — all tallied in the
// returned map's Damage field. It still fails when no sequence header or
// no pictures survive: then there is nothing to decode at any policy.
func ScanLenient(data []byte) (*StreamMap, error) { return scan(data, true) }

func scan(data []byte, lenient bool) (*StreamMap, error) {
	start := time.Now()
	s := NewScanState(lenient)
	pos := 0
	for {
		i := bits.FindStartCode(data, pos)
		if i < 0 {
			break
		}
		if err := s.Step(data, 0, i); err != nil {
			return nil, err
		}
		pos = i + 4
	}
	m, err := s.Finish(len(data))
	if err != nil {
		return nil, err
	}
	m.ScanTime = time.Since(start)
	return m, nil
}

// ScanState is the scan process as an incremental state machine: the
// batch Scan drives it over a fully materialized buffer, the streaming
// scanner (internal/stream) drives it over a sliding window of an
// io.Reader, and both produce the identical StreamMap for the same
// bytes. Startcodes must be fed strictly in stream order.
type ScanState struct {
	m       *StreamMap
	lenient bool
	seqSeen bool

	curGOP           *GOPRange
	curPic           *PictureRange
	pendingSeqOffset int // offset of a seq header not yet claimed by a GOP
	display          int // running display index assigned to closed GOPs

	// What the group and the picture closed last held, the capacity the
	// next ones' lists start at: streams repeat their structure, and
	// appending from empty costs a handful of reallocations per list.
	gopPics, picSlices int

	// OnGOP, when non-nil, is called each time a group of pictures
	// closes, with its index and range (absolute stream offsets), and the
	// range is the callback's from then on, to keep and to alter: the scan
	// forgets it, so a scan with a callback holds one open group however
	// long the stream, and Finish's map carries the header and the counts
	// but no GOPs. The streaming pipeline copies the group's bytes out of
	// its window here; returning an error aborts the scan.
	OnGOP  func(g int, gr *GOPRange) error
	groups int // groups closed so far
}

// NewScanState returns a scan state machine (lenient or strict, matching
// ScanLenient and Scan).
func NewScanState(lenient bool) *ScanState {
	return &ScanState{
		m:                &StreamMap{},
		lenient:          lenient,
		pendingSeqOffset: -1,
	}
}

// Pictures returns the number of pictures scanned so far (closed GOPs
// only — the count the streaming pipeline's scan-lead gauge tracks).
func (s *ScanState) Pictures() int { return s.m.TotalPictures }

// Seq returns the sequence header currently in force. Valid inside an
// OnGOP callback (a group closes under the header that opened it).
func (s *ScanState) Seq() *mpeg2.SequenceHeader { return &s.m.Seq }

// KeepFrom returns the lowest absolute offset the state machine may
// still need bytes from: the start of the open group of pictures (its
// bytes are copied out when it closes) or of an unclaimed sequence
// header. Offsets below it may be released from a sliding window.
func (s *ScanState) KeepFrom(searchFrom int) int {
	keep := searchFrom
	if s.curGOP != nil && s.curGOP.Offset < keep {
		keep = s.curGOP.Offset
	}
	if s.pendingSeqOffset >= 0 && s.pendingSeqOffset < keep {
		keep = s.pendingSeqOffset
	}
	return keep
}

func (s *ScanState) closePic(end int) {
	if s.curPic == nil {
		return
	}
	s.curPic.End = end
	if n := len(s.curPic.Slices); n > 0 {
		s.curPic.Slices[n-1].End = end
		s.curPic.Slices[n-1].Bytes = end - s.curPic.Slices[n-1].Offset
	}
	s.picSlices = len(s.curPic.Slices)
	s.curGOP.Pictures = append(s.curGOP.Pictures, *s.curPic)
	s.curPic = nil
}

// openGOP starts a group of pictures at the startcode at i, or at the
// sequence header waiting to be claimed before it.
func (s *ScanState) openGOP(i int, closed bool) {
	off := i
	if s.pendingSeqOffset >= 0 {
		off = s.pendingSeqOffset
	}
	s.curGOP = &GOPRange{Offset: off, FirstDisplay: -1, Closed: closed,
		Pictures: make([]PictureRange, 0, s.gopPics)}
	s.pendingSeqOffset = -1
}

// openPic starts a picture in the open group.
func (s *ScanState) openPic(pr PictureRange) {
	pr.Slices = make([]SliceRange, 0, s.picSlices)
	s.curPic = &pr
}

func (s *ScanState) closeGOP(end int) error {
	s.closePic(end)
	if s.curGOP == nil {
		return nil
	}
	s.curGOP.End = end
	s.curGOP.FirstDisplay = s.display
	s.display += len(s.curGOP.Pictures)
	s.gopPics = len(s.curGOP.Pictures)
	s.m.TotalPictures += len(s.curGOP.Pictures)
	g, gr := s.groups, s.curGOP
	s.groups++
	s.curGOP = nil
	if s.OnGOP != nil {
		return s.OnGOP(g, gr)
	}
	s.m.GOPs = append(s.m.GOPs, *gr)
	return nil
}

// headerReader returns a bit reader over the header payload following the
// startcode at absolute offset pos, bounded to scanHeaderSpan bytes.
func headerReader(view []byte, base, pos int) *bits.Reader {
	lo := pos - base
	hi := lo + scanHeaderSpan
	if hi > len(view) {
		hi = len(view)
	}
	return bits.NewReader(view[lo:hi])
}

// Step processes the startcode whose first zero byte sits at absolute
// stream offset i. view holds the stream bytes [base, base+len(view));
// it must cover the startcode and — unless the stream ends inside it —
// at least ScanAheadBytes beyond it, so header parses behave exactly as
// in the batch scan.
func (s *ScanState) Step(view []byte, base, i int) error {
	end := base + len(view)
	code := view[i-base+3]
	pos := i + 4
	switch {
	case code == mpeg2.SequenceHeaderCode:
		if err := s.closeGOP(i); err != nil {
			return err
		}
		r := headerReader(view, base, pos)
		seq, err := mpeg2.ParseSequenceHeader(r)
		if err != nil {
			if !s.lenient {
				return fmt.Errorf("core: scan: %w", err)
			}
			// Damaged repeated header: keep decoding with the last
			// good geometry.
			s.m.Damage.BadHeaders++
			s.pendingSeqOffset = -1
			return nil
		}
		if s.seqSeen && (seq.Width != s.m.Seq.Width || seq.Height != s.m.Seq.Height) {
			if !s.lenient {
				return fmt.Errorf("core: scan: sequence size changes mid-stream")
			}
			// A mid-stream size change on a damaged stream is almost
			// certainly a corrupted repeat header, not a real switch.
			s.m.Damage.BadHeaders++
			s.pendingSeqOffset = -1
			return nil
		}
		s.m.Seq = seq
		s.seqSeen = true
		s.pendingSeqOffset = i
	case code == mpeg2.GroupStartCode:
		if err := s.closeGOP(i); err != nil {
			return err
		}
		r := headerReader(view, base, pos)
		gh, err := mpeg2.ParseGOPHeader(r)
		if err != nil {
			if !s.lenient {
				return fmt.Errorf("core: scan: %w", err)
			}
			// Unreadable GOP header: the group boundary (the
			// startcode) is still trustworthy, only its payload is
			// not. Synthesize a closed group.
			s.m.Damage.BadHeaders++
			gh.Closed = true
		}
		s.openGOP(i, gh.Closed)
	case code == mpeg2.PictureStartCode:
		if s.curGOP == nil {
			// GOP headers are optional in MPEG-2: synthesize one.
			s.openGOP(i, true)
		}
		s.closePic(i)
		if i+5 >= end {
			if !s.lenient {
				return fmt.Errorf("core: scan: truncated picture header at %d", i)
			}
			s.m.Damage.DamagedPictures++
			s.openPic(PictureRange{Offset: i, Damaged: true})
			return nil
		}
		// temporal_reference: 10 bits; picture_coding_type: 3 bits.
		b0, b1 := int(view[i-base+4]), int(view[i-base+5])
		tref := b0<<2 | b1>>6
		ptype := vlc.PictureCoding(b1 >> 3 & 7)
		if ptype < vlc.CodingI || ptype > vlc.CodingB {
			if !s.lenient {
				return fmt.Errorf("core: scan: bad picture type %d at %d", int(ptype), i)
			}
			s.m.Damage.DamagedPictures++
			s.openPic(PictureRange{Offset: i, Damaged: true})
			return nil
		}
		s.openPic(PictureRange{Offset: i, Type: ptype, TemporalRef: tref})
	case code >= mpeg2.SliceStartMin && code <= mpeg2.SliceStartMax:
		if s.curPic == nil {
			if !s.lenient {
				return fmt.Errorf("core: scan: slice startcode outside picture at %d", i)
			}
			// Slices with no owning picture (the picture startcode
			// itself was destroyed) cannot be placed; drop them.
			s.m.Damage.OrphanSlices++
			return nil
		}
		if n := len(s.curPic.Slices); n > 0 {
			s.curPic.Slices[n-1].End = i
			s.curPic.Slices[n-1].Bytes = i - s.curPic.Slices[n-1].Offset
		}
		s.curPic.Slices = append(s.curPic.Slices, SliceRange{Row: int(code) - 1, Offset: i})
	case code == mpeg2.SequenceEndCode:
		return s.closeGOP(i)
	default:
		// Extension/user data: belongs to the current unit; nothing
		// to index.
	}
	return nil
}

// Finish closes the trailing group at the given total stream length and
// returns the completed map. The caller stamps ScanTime.
func (s *ScanState) Finish(total int) (*StreamMap, error) {
	if err := s.closeGOP(total); err != nil {
		return nil, err
	}
	m := s.m
	m.Bytes = total
	if !s.seqSeen {
		return nil, fmt.Errorf("core: scan: no sequence header")
	}
	if m.TotalPictures == 0 {
		return nil, fmt.Errorf("core: scan: no pictures")
	}
	return m, nil
}

// DisplayIndex returns the absolute display position of picture p of GOP g.
func (m *StreamMap) DisplayIndex(g int, p *PictureRange) int {
	return m.GOPs[g].FirstDisplay + p.TemporalRef
}
