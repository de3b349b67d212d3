// Package stream decodes an MPEG-2 elementary stream incrementally, from
// an io.Reader or from memory: the scan process discovers structure chunk
// by chunk (or over the caller's bytes in place) and feeds groups of
// pictures to the worker pool as soon as they close, instead of after a
// full-stream scan. Output is bit-identical to the batch
// decoder for every mode and resilience policy — both sides drive the same
// incremental scan state machine and plan builder.
//
// What a decode holds is bounded by windows, never by stream length: the
// scan window (the open group and the unscanned tail, one chunk unless a
// group outgrows it; none for an in-memory source, whose bytes are read
// where they lie), at most MaxInFlight units — a closed group's bytes
// and scanned ranges, handed over by the scan and forgotten there — with
// their planned pictures, the slice queue's depth window and the reorder
// buffer. A group leaves the plan, and the window, when the display
// process delivers its last picture; nothing later can name its pictures,
// since references never leave a group.
// Stats.PeakInFlightBytes gauges window + units; DESIGN.md, "Streaming
// pipeline", has the table.
package stream

import (
	"context"
	"fmt"
	"io"
	"time"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/core"
	"mpeg2par/internal/obs"
)

// DefaultChunkSize is the read granularity when Options.ChunkSize is
// zero.
const DefaultChunkSize = 64 << 10

// Options configures a streaming decode. The embedded core options
// select mode, workers, resilience, sink, and the scan-ahead window
// (MaxInFlight).
type Options struct {
	core.Options

	// ChunkSize is the read granularity over a reader source; zero
	// selects DefaultChunkSize. Small chunks exercise more startcode
	// boundary splits, large chunks amortize read overhead.
	ChunkSize int
}

// Source is the elementary stream a decode reads: Data, in place, when R
// is nil, or R through the scan window otherwise.
type Source struct {
	Data []byte
	R    io.Reader
}

// windowScanner slides a bounded byte window over a reader and drives
// the incremental scan state machine across it. The window keeps, at
// most, the open group of pictures plus the unscanned tail — the floor
// ScanState.KeepFrom reports. Without a reader the window is the whole
// in-memory stream, never slid, grown or written, and holds no bytes of
// its own. With a session it samples the scan-side gauges: its bytes plus
// the session's held ones, and its pictures less those displayed.
type windowScanner struct {
	r     io.Reader // nil: buf is the caller's stream
	chunk int
	ss    *core.ScanState
	buf   []byte
	base  int // absolute stream offset of buf[0]
	s     *core.Session
	peak  int64
	lead  int
}

// sample samples the scan-side gauges.
func (w *windowScanner) sample() {
	if w.s == nil {
		return
	}
	win := int64(0)
	if w.r != nil {
		win = int64(len(w.buf))
	}
	w.peak = max(w.peak, win+w.s.Held())
	w.lead = max(w.lead, w.ss.Pictures()-w.s.Displayed())
}

// bytes returns the window's view of absolute range [from, to).
func (w *windowScanner) bytes(from, to int) []byte {
	return w.buf[from-w.base : to-w.base]
}

// fill slides the window past the bytes the scan state is done with and
// reads one chunk into it; it reports whether the stream has ended. An
// in-memory stream is all in the window from the start.
func (w *windowScanner) fill(searchFrom int) (eof bool, err error) {
	if w.r == nil {
		return true, nil
	}
	// Slide the window: bytes below the scan state's floor (open group,
	// pending sequence header, scan position) are done.
	if keep := w.ss.KeepFrom(searchFrom); keep > w.base {
		n := copy(w.buf, w.buf[keep-w.base:])
		w.buf = w.buf[:n]
		w.base = keep
	}
	// Read into the capacity that is left, a chunk at most; the window
	// grows only when the open group has filled it.
	if len(w.buf) == cap(w.buf) {
		nb := make([]byte, len(w.buf), 2*len(w.buf)+w.chunk)
		copy(nb, w.buf)
		w.buf = nb
	}
	n, rerr := w.r.Read(w.buf[len(w.buf):min(cap(w.buf), len(w.buf)+w.chunk)])
	w.buf = w.buf[:len(w.buf)+n]
	w.sample()
	if rerr != nil && rerr != io.EOF {
		return false, fmt.Errorf("stream: read at %d: %w", w.base+len(w.buf), rerr)
	}
	return rerr == io.EOF, nil
}

// run reads the stream to EOF, stepping the scan state machine over
// every startcode. A startcode is processed only once ScanAheadBytes of
// lookahead are buffered (or the stream ended), which makes every
// header parse see the same bytes the batch scan would — the
// equivalence the chunk-boundary tests pin down. Returns the total
// stream length.
func (w *windowScanner) run(ctx context.Context) (int, error) {
	searchFrom := 0 // absolute offset scanning resumes from
	for {
		if err := ctx.Err(); err != nil {
			return w.base + len(w.buf), err
		}
		eof, err := w.fill(searchFrom)
		if err != nil {
			return w.base + len(w.buf), err
		}
		end := w.base + len(w.buf)
		for {
			i := bits.FindStartCode(w.buf, searchFrom-w.base)
			if i < 0 {
				// No full startcode in the window; a prefix may still
				// straddle the boundary, so resume over the last 3 bytes.
				if f := end - 3; f > searchFrom {
					searchFrom = f
				}
				break
			}
			abs := w.base + i
			if !eof && end-abs < core.ScanAheadBytes {
				searchFrom = abs // revisit once the lookahead is buffered
				break
			}
			if err := w.ss.Step(w.buf, w.base, abs); err != nil {
				return end, err
			}
			w.sample()
			searchFrom = abs + 4
		}
		if eof {
			return end, nil
		}
	}
}

// rebaseGOP moves every offset of a group range down by delta, in place, so
// that they index the unit buffer whose first byte was stream offset delta.
func rebaseGOP(gr *core.GOPRange, delta int) {
	gr.Offset -= delta
	gr.End -= delta
	for i := range gr.Pictures {
		p := &gr.Pictures[i]
		p.Offset -= delta
		p.End -= delta
		for j := range p.Slices {
			p.Slices[j].Offset -= delta
			p.Slices[j].End -= delta
		}
	}
}

// ScanUnits drives the incremental scan over src, invoking feed with each
// closed group of pictures as a core.Unit, exactly the units stream.Decode
// feeds its session. A unit's Data is its group's bytes, with the scanned
// range rebased to them: for an in-memory source a subslice of src.Data —
// nothing is copied, and the bytes a unit holds in flight are the
// caller's — and for a reader, scanned in chunkSize-byte reads, a copy, so
// that the window can slide on. A feed error aborts the scan and is
// returned. With a session s (may be nil), the scan records in its Stats
// the scan time — the scan's wall time less the time spent in feed, which
// waits for the window (and, in the service, for pacing) and plans — the
// scan rate, PeakInFlightBytes and ScanLeadPeak.
//
// This is the scan front half of the streaming pipeline with the decode
// back half factored out — the multi-stream service uses it to feed
// per-stream sessions whose tasks a shared pool executes.
func ScanUnits(ctx context.Context, src Source, chunkSize int, lenient bool, s *core.Session, feed func(core.Unit) error) error {
	ss := core.NewScanState(lenient)
	w := newWindowScanner(src, chunkSize, ss)
	w.s = s
	var fed time.Duration
	ss.OnGOP = func(g int, gr *core.GOPRange) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		// The unit owns the range the scan has just let go of until its
		// last picture is delivered.
		u := core.Unit{G: g, Seq: *ss.Seq(), Base: gr.Offset, Data: w.bytes(gr.Offset, gr.End), Range: *gr}
		if w.r != nil {
			// Copy the group out of the window so the window can slide on.
			u.Data = append([]byte(nil), u.Data...)
		}
		rebaseGOP(&u.Range, u.Base)
		t0 := time.Now()
		defer func() { fed += time.Since(t0); w.sample() }()
		return feed(u)
	}
	scanStart := time.Now()
	total, err := w.run(ctx)
	if err == nil {
		_, err = ss.Finish(total)
	}
	if s != nil {
		s.NoteScan(ss.Pictures(), time.Since(scanStart)-fed, w.peak, w.lead)
	}
	return err
}

// Decode runs the full streaming pipeline over r: incremental scan,
// parallel decode in the configured mode on core.DecodeUnits' pool, in-order
// display through the sink. It blocks until the stream is exhausted and
// every picture displayed, or until ctx is cancelled — cancellation tears
// down scan, workers, and display without leaking goroutines or frame
// memory, delivers nothing more, and returns ctx's error even when it lands
// after the last picture has been scanned or delivered.
//
// Unlike the batch API, the returned Stats are non-nil even alongside
// an error, carrying the teardown gauges (notably LeakedFrameBytes).
func Decode(ctx context.Context, src Source, opt Options) (*core.Stats, error) {
	st, err := core.DecodeUnits(ctx, opt.Options, func(s *core.Session, feed func(core.Unit) error) error {
		lastScan := time.Now()
		return ScanUnits(ctx, src, opt.ChunkSize, opt.Resilience != core.FailFast, s, func(u core.Unit) error {
			// The scan lane's span for this group covers reading + scanning
			// since the previous group closed; the feed's backpressure block
			// is recorded separately (KindFeed) so the two never double-count.
			opt.Obs.Record(obs.KindScan, obs.LaneScan, lastScan, time.Since(lastScan), u.G, -1, -1)
			err := feed(u)
			lastScan = time.Now()
			return err
		})
	})
	if st == nil {
		return &core.Stats{Mode: opt.Mode, Workers: opt.EffectiveWorkers()}, err
	}
	return st, err
}

// ScanReader runs only the scan process over r in chunkSize-byte reads
// and returns the stream map. For any chunk size it is identical —
// field for field, offset for offset — to core.Scan (strict) or
// core.ScanLenient over the same bytes, except for ScanTime.
func ScanReader(r io.Reader, chunkSize int, lenient bool) (*core.StreamMap, error) {
	start := time.Now()
	ss := core.NewScanState(lenient)
	total, err := newWindowScanner(Source{R: r}, chunkSize, ss).run(context.Background())
	if err != nil {
		return nil, err
	}
	m, err := ss.Finish(total)
	if err != nil {
		return nil, err
	}
	m.ScanTime = time.Since(start)
	return m, nil
}

// newWindowScanner returns the scanner of src: over its bytes in place, or
// over its reader in chunkSize-byte reads (DefaultChunkSize when zero).
func newWindowScanner(src Source, chunkSize int, ss *core.ScanState) *windowScanner {
	if src.R == nil {
		return &windowScanner{ss: ss, buf: src.Data}
	}
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &windowScanner{r: src.R, chunk: chunkSize, ss: ss}
}
