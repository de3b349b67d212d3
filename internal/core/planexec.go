package core

import (
	"fmt"
	"time"

	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/mpeg2"
)

// poolGet is the one call that hands a decode its output frames, stale
// pixels and all. It is a variable only so that tests can poison every
// frame it returns and prove that the decode overwrites each pixel it
// ships.
var poolGet = (*frame.Pool).Get

// newPlanFrame allocates and tags the output frame of one planned
// picture, storing it in the picState. Retains: 1 for the display
// process plus one per holder (pictures that predict from, or substitute
// from, this frame).
func newPlanFrame(pool *frame.Pool, p *picState) *frame.Frame {
	f := poolGet(pool)
	f.Retain(1 + p.deps)
	f.PictureType = "?IPB"[int(p.hdr.Type)]
	f.TemporalRef = p.hdr.TemporalReference
	return f
}

// substitute fills p's frame with a copy of its substitution source, or
// with mid-grey when it has none.
func substitute(p *picState) {
	var src *frame.Frame
	if p.subFrom != nil {
		src = p.subFrom.frame
	}
	if !p.frame.CopyPixelsFrom(src) {
		p.frame.Fill(128)
	}
}

// releaseHolds gives up the frames the completed picture p read.
func releaseHolds(pool *frame.Pool, p *picState) {
	for _, r := range p.holds {
		if r.frame.Release() {
			pool.Put(r.frame)
		}
	}
}

// concealUncovered is the completion step of a decoded picture: every
// macroblock cov lacks is concealed from the picture's reference and
// tallied into es — or, under FailFast, reported.
func concealUncovered(p *picState, cov *coverage, opt Options, es *ErrorStats) error {
	if cov.full() {
		return nil
	}
	if opt.Resilience == FailFast {
		return fmt.Errorf("core: picture at display %d covered %d of %d macroblocks", p.displayIdx, cov.n, cov.total)
	}
	ref, mbw := concealRef(p), p.params.MBWidth
	for a := 0; a < cov.total; a++ {
		if !cov.has(a) {
			decoder.ConcealMB(p.frame, ref, a%mbw, a/mbw)
			es.ConcealedMBs++
		}
	}
	return nil
}

// lap, when profiling, stores the time since *t0 as the task's k-th cost
// and restarts the clock.
func lap(prof []time.Duration, k int, t0 *time.Time) {
	if prof != nil {
		now := time.Now()
		prof[k], *t0 = now.Sub(*t0), now
	}
}

// runPlanSliceTask executes task ti of planned picture p: the single
// substitution step of a dropped picture, one macroblock-row group of
// slices, or one segment of a split slice. Work, damage and split
// activity are tallied into tl; reconstructed macroblocks are appended to
// scr's task spans; with Options.Profile each slice of the group, or
// the segment, is timed into p.prof[ti]. A non-nil error is only possible
// under FailFast.
func runPlanSliceTask(seq *mpeg2.SequenceHeader, p *picState, ti, wi int, opt Options, scr *sliceScratch, tl *tally) error {
	var prof []time.Duration
	var t0 time.Time
	if p.prof != nil {
		prof, t0 = p.prof[ti], time.Now()
	}
	if p.fate == fateSubstitute {
		substitute(p)
		lap(prof, 0, &t0)
		return nil
	}
	refs := picRefs(p)
	last := len(p.rng.Slices) - 1
	gi, j, seg := p.taskAt(ti)
	if j != nil {
		// A segment of a split slice. Only the join's (fallback) error is
		// authoritative — a failed segment alone proves nothing about the
		// slice, so per-segment errors stay inside the join state.
		n := len(scr.taskSpans)
		w, err := runSegment(seq, &p.hdr, &p.params, p.data, refs, p.frame, j, seg, wi, p.rowwise, opt, scr, &tl.sst)
		tl.work.Add(w)
		lap(prof, 0, &t0)
		if err != nil {
			scr.taskSpans = scr.taskSpans[:n] // a failed re-decode hands over no coverage
			if opt.Resilience == FailFast {
				return err
			}
			tl.es.DamagedSlices++
			if j.si != last {
				tl.es.Resyncs++
			}
		}
		return nil
	}
	for k, si := range p.groups[gi] {
		w, err := decodeSliceRange(p.data, seq, &p.hdr, &p.params, p.rng.Slices[si], p.sliceBound(si), refs, p.frame, wi, scr)
		tl.work.Add(w)
		lap(prof, k, &t0)
		if err != nil {
			if opt.Resilience == FailFast {
				return err
			}
			tl.es.DamagedSlices++
			if si != last {
				tl.es.Resyncs++
			}
		}
	}
	return nil
}
