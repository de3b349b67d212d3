package core

import (
	"fmt"
	"sync"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/vldsplit"
)

// SplitStats accounts the intra-slice split decoder: how many tall
// slices were fanned out as row-segments, how the verify rule judged
// them, and how many fell back to a sequential re-decode. Disjoint from
// ErrorStats and ShedStats — a verify miss is a poisoned or stale index,
// not stream damage, and costs only time.
type SplitStats struct {
	// SlicesSplit counts slices decoded as parallel segments (whether or
	// not the split verified).
	SlicesSplit int
	// SegmentsRun counts segment tasks executed (including the segments
	// of splits that later failed verification).
	SegmentsRun int
	// VerifyHits counts splits whose segment chain verified exactly —
	// the parallel result was adopted bit-for-bit.
	VerifyHits int
	// VerifyMisses counts splits rejected by the verify rule (a poisoned
	// or stale index).
	VerifyMisses int
	// Fallbacks counts sequential re-decodes after a miss (of what the
	// verified prefix did not reach: at most the whole slice).
	Fallbacks int
}

// Add accumulates o into s.
func (s *SplitStats) Add(o SplitStats) {
	s.SlicesSplit += o.SlicesSplit
	s.SegmentsRun += o.SegmentsRun
	s.VerifyHits += o.VerifyHits
	s.VerifyMisses += o.VerifyMisses
	s.Fallbacks += o.Fallbacks
}

// Any reports whether any split activity was recorded.
func (s SplitStats) Any() bool {
	return s != SplitStats{}
}

// segTask is one entry of a picture's expanded task table. A picture
// whose slices all decode whole has a nil task table and the queue's
// task indices address row groups directly; once any slice splits, every
// task is routed through the table: base names the underlying group, and
// join/seg identify a segment of a split slice (join == nil for unsplit
// tasks).
type segTask struct {
	base int
	join *splitJoin
	seg  int
}

// segRes is one segment's outcome, parked until its chain verifies. A
// cleanly decoded segment covers the contiguous address range [first, last]
// (skipped macroblocks are materialised).
type segRes struct {
	done        bool
	err         error
	exitBit     int64
	exit        mpeg2.SplitState
	atEnd       bool
	first, last int
}

// splitJoin is the shared state of one split slice: the split points,
// each segment's result, and how far the verify rule has got. Segment k is
// verified once every segment before it has finished cleanly and stopped
// exactly at its split point — bit offset and predictive state — and k
// itself has finished cleanly (the last at the slice's end): its entry
// state, and so its macroblocks, were the sequential decoder's. The
// verified segments are a prefix, and only their coverage leaves the join;
// the rest is re-decoded by the last segment to finish (runSegment).
type splitJoin struct {
	si       int        // slice index within the picture (resync accounting)
	sr       SliceRange // the slice's scanned byte range
	maxAddr  int        // inclusive macroblock address bound of the slice span
	pts      []vldsplit.Point
	segBytes []int64 // per-segment byte-size cost estimates

	mu       sync.Mutex
	res      []segRes // len(pts)+1 entries
	done     int      // segments finished
	verified int      // leading segments whose chain has verified
	handed   int      // leading segments whose coverage has left the join
}

// sliceSpanBounds returns, per slice, the inclusive macroblock address
// bound of its span: from its own row up to the last row before the
// next row any other slice of the picture claims (picture end for the
// highest row). MPEG-2's general slice structure lets one slice span
// many rows, so the per-slice decode bound cannot be the slice's own
// row; bounding each slice at the next claimed row keeps concurrently
// decoded slices writing disjoint pixels even on corrupt streams —
// the invariant every parallel slice schedule relies on.
func sliceSpanBounds(slices []SliceRange, params *mpeg2.PictureParams) []int {
	mbw, mbh := params.MBWidth, params.MBHeight
	bounds := make([]int, len(slices))
	picEnd := mbw*mbh - 1
	for i := range bounds {
		bound := picEnd
		row := slices[i].Row
		for j := range slices {
			if r := slices[j].Row; r > row && r*mbw-1 < bound {
				bound = r*mbw - 1
			}
		}
		bounds[i] = bound
	}
	return bounds
}

// sliceBound returns the decode bound of slice si, defaulting to the
// picture end for pictures planned without bounds (substitutes).
func (p *picState) sliceBound(si int) int {
	if si < len(p.bounds) {
		return p.bounds[si]
	}
	return p.params.MBWidth*p.params.MBHeight - 1
}

// taskAt resolves queue task index ti: the underlying group index and,
// for a segment of a split slice, its join state.
func (p *picState) taskAt(ti int) (base int, j *splitJoin, seg int) {
	if p.tasks == nil {
		return ti, nil, 0
	}
	t := p.tasks[ti]
	return t.base, t.join, t.seg
}

// taskBytes returns the byte-size cost estimate of queue task ti — the
// scheduler's packing key and the cost model's per-task observation.
func taskBytes(p *picState, ti int) int64 {
	base, j, seg := p.taskAt(ti)
	if j != nil {
		return j.segBytes[seg]
	}
	return groupCost(p.rng.Slices, p.groups[base])
}

// newSplitJoin decides whether the slice at sr splits and builds the
// join state from the split points the index knows for its content. The
// index's point per macroblock row is thinned to segments of TaskGrain's
// split grain unless opt.SplitParts names the segment count. Returns nil
// when the slice spans fewer than two rows or no usable points exist.
func newSplitJoin(data []byte, params *mpeg2.PictureParams, si int, sr SliceRange, bound int, opt Options) *splitJoin {
	mbw := params.MBWidth
	if mbw <= 0 || sr.Row < 0 || bound < 0 {
		return nil
	}
	spanRows := bound/mbw - sr.Row + 1
	if spanRows < 2 {
		return nil
	}
	parts := opt.SplitParts
	if parts == 0 {
		grain := TaskGrain(mbw, params.MBHeight, opt.Workers, true)
		parts = (spanRows + grain - 1) / grain
	}
	parts = min(parts, spanRows)
	pts := vldsplit.SelectPoints(opt.SplitIndex.Lookup(data[sr.Offset:sr.End]), parts)
	// A point above the slice's own rows would let a segment write rows
	// another task owns; no decode of this slice can chain through it.
	if len(pts) == 0 || pts[0].State.PrevAddr < sr.Row*mbw {
		return nil
	}
	j := &splitJoin{
		si: si, sr: sr, maxAddr: bound, pts: pts,
		res: make([]segRes, len(pts)+1),
	}
	j.segBytes = make([]int64, len(pts)+1)
	totalBits := int64(sr.Bytes) * 8
	prev := int64(0)
	for k := range j.segBytes {
		end := totalBits
		if k < len(pts) {
			end = pts[k].BitOff
		}
		b := (end - prev) / 8
		if b < 1 {
			b = 1
		}
		j.segBytes[k] = b
		prev = end
	}
	return j
}

// buildSplitTasks expands a picture's row groups into a segment task
// table, splitting every eligible tall slice. Only a group holding a single
// slice can split: the slices of a multi-slice task run serially on one
// worker (same-row slices must), which a segment fan-out would break.
// Returns false (leaving the picture's task fields untouched) when nothing
// split.
func buildSplitTasks(p *picState, data []byte, opt Options) bool {
	var tasks []segTask
	var costs []int64
	split := false
	for b, group := range p.groups {
		if len(group) == 1 {
			si := group[0]
			if j := newSplitJoin(data, &p.params, si, p.rng.Slices[si], p.sliceBound(si), opt); j != nil {
				for seg := range j.res {
					tasks = append(tasks, segTask{base: b, join: j, seg: seg})
					costs = append(costs, j.segBytes[seg])
				}
				split = true
				continue
			}
		}
		tasks = append(tasks, segTask{base: b})
		costs = append(costs, taskBytes(p, b))
	}
	if !split {
		return false
	}
	p.tasks = tasks
	p.nTasks = len(tasks)
	p.remaining = len(tasks)
	p.order = packOrder(costs, opt.Workers)
	return true
}

// chains reports whether segment k stopped exactly at split point k: at
// its bit offset (not at a premature end of slice) with predictive state
// exactly equal to the recorded entry state of segment k+1.
func (j *splitJoin) chains(k int) bool {
	r := &j.res[k]
	return !r.atEnd && r.exitBit == int64(j.sr.Offset)*8+j.pts[k].BitOff && r.exit == j.pts[k].State
}

// runSegment executes one segment of a split slice, advances the verify
// chain over every leading segment it now reaches, and appends to scr's
// task spans the coverage that may leave the join. With rowwise set (a
// damaged slice fails the decode, so nothing is ever taken back) that is
// the coverage of the newly verified segments, whichever worker ran them:
// a verified segment is bit-exact with the sequential decode by
// construction — it parsed the same bits under the same predictors — so
// its rows go to the queue while later segments still run. Otherwise a
// damaged slice must be dropped whole, and only the last segment to finish
// returns coverage: all of the slice's or none.
//
// The last to finish also settles what the chain did not reach: it
// re-decodes the slice from where the verified prefix really stopped (the
// whole slice when nothing verified). That touches no row of the prefix —
// rows a reader may already hold — and its result is authoritative for
// pixels and errors, so a poisoned or stale index never changes
// output. The error is the re-decode's; the caller then drops the spans.
func runSegment(seq *mpeg2.SequenceHeader, hdr *mpeg2.PictureHeader, params *mpeg2.PictureParams, data []byte, refs decoder.Refs, dst *frame.Frame, j *splitJoin, seg int, rowwise bool, scr *sliceScratch, sst *SplitStats) (decoder.WorkStats, error) {
	sst.SegmentsRun++
	sr := j.sr
	nSeg := len(j.res)
	startBit := int64(sr.Offset) * 8

	segMax := j.maxAddr
	var endBit int64
	if seg < nSeg-1 {
		if m := j.pts[seg].State.PrevAddr; m < segMax {
			segMax = m
		}
		endBit = startBit + j.pts[seg].BitOff
	}

	var ds mpeg2.DecodedSlice
	var end mpeg2.SegmentEnd
	var err error
	scr.r.Reset(data[:sr.End])
	if seg == 0 {
		scr.r.SeekBit(startBit)
		var code byte
		if code, err = scr.r.ReadStartCode(); err == nil {
			ds, end, err = mpeg2.DecodeSliceHead(&scr.r, params, int(code)-1, segMax, endBit, nil, scr.mbs)
			scr.mbs = ds.MBs
		}
	} else {
		entry := j.pts[seg-1]
		scr.r.SeekBit(startBit + entry.BitOff)
		ds, end, err = mpeg2.DecodeSliceSegment(&scr.r, params, entry.State, segMax, endBit, scr.mbs)
		scr.mbs = ds.MBs
	}
	var work decoder.WorkStats
	if err == nil {
		work, err = scr.rec.ReconSlice(seq, hdr, refs, dst, &ds)
	}

	res := segRes{done: true, err: err, exitBit: end.BitOff, exit: end.State, atEnd: end.AtEnd, last: -1}
	if n := len(ds.MBs); err == nil && n > 0 {
		res.first, res.last = ds.MBs[0].Addr, ds.MBs[n-1].Addr
	}
	j.mu.Lock()
	j.res[seg] = res
	j.done++
	last := j.done == nSeg
	for v := j.verified; v < nSeg; v++ {
		r := &j.res[v]
		// An empty segment proves nothing (a point at the payload's last bit).
		if !r.done || r.err != nil || r.last < r.first || v > 0 && !j.chains(v-1) || v == nSeg-1 && !r.atEnd {
			break
		}
		j.verified = v + 1
	}
	verified, from := j.verified, j.handed
	if rowwise || last {
		j.handed = verified
	}
	to := j.handed
	j.mu.Unlock()
	// A verified segment's result is never written again.
	for k := from; k < to; k++ {
		scr.taskSpans = append(scr.taskSpans, mbSpan{j.res[k].first, j.res[k].last})
	}
	if !last {
		return work, nil
	}

	sst.SlicesSplit++
	if verified == nSeg {
		sst.VerifyHits++
		return work, nil
	}
	sst.VerifyMisses++
	sst.Fallbacks++
	if verified == 0 {
		w2, err := decodeSliceRange(data, seq, hdr, params, sr, j.maxAddr, refs, dst, scr)
		work.Add(w2)
		return work, err
	}
	// Every segment has finished, so j.res is quiescent. The prefix's last
	// segment stopped at a true macroblock boundary of the slice, with the
	// sequential decoder's state.
	if prev := &j.res[verified-1]; !prev.atEnd {
		scr.r.Reset(data[:sr.End])
		scr.r.SeekBit(prev.exitBit)
		ds, _, err = mpeg2.DecodeSliceSegment(&scr.r, params, prev.exit, j.maxAddr, 0, scr.mbs)
		scr.mbs = ds.MBs
		if err != nil {
			return work, fmt.Errorf("core: slice row %d: %w", sr.Row, err)
		}
		w2, err := scr.rec.ReconSlice(seq, hdr, refs, dst, &ds)
		work.Add(w2)
		if err != nil {
			return work, err
		}
		scr.addSpans(ds.MBs)
	}
	return work, nil
}

// BuildIndexScanned walks a scanned stream and records exact split
// points for every slice spanning two or more macroblock rows — the
// encode-time (or indexing-pass) side of the intra-slice split channel.
// Slices that fail to parse are skipped: an index is an accelerator, not
// a validator.
func BuildIndexScanned(data []byte, m *StreamMap) (*vldsplit.Index, error) {
	ix := vldsplit.NewIndex()
	var scratch []mpeg2.MB
	for g := range m.GOPs {
		gop := &m.GOPs[g]
		for pi := range gop.Pictures {
			pr := &gop.Pictures[pi]
			if pr.Damaged || len(pr.Slices) == 0 {
				continue
			}
			r := bits.NewReader(data[:pr.End])
			r.SeekBit(int64(pr.Offset+4) * 8)
			hdr, err := mpeg2.ParsePictureHeader(r)
			if err != nil {
				continue
			}
			params := decoder.PictureParams(&m.Seq, &hdr)
			if params.MBWidth <= 0 || params.MBHeight <= 0 {
				continue
			}
			bounds := sliceSpanBounds(pr.Slices, &params)
			for si := range pr.Slices {
				sr := pr.Slices[si]
				if sr.Row < 0 || bounds[si]/params.MBWidth-sr.Row+1 < 2 {
					continue
				}
				pts, scr, err := vldsplit.BuildSlice(data[sr.Offset:sr.End], &params, sr.Row, bounds[si], scratch)
				scratch = scr
				if err != nil || len(pts) == 0 {
					continue
				}
				if err := ix.Add(data[sr.Offset:sr.End], pts); err != nil {
					return nil, fmt.Errorf("core: indexing GOP %d picture %d slice %d: %w", g, pi, si, err)
				}
			}
		}
	}
	return ix, nil
}
