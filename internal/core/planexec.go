package core

import (
	"fmt"
	"time"

	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/mpeg2"
)

// newPlanFrame allocates and tags the output frame of one planned
// picture, storing it in the picState. Retains: 1 for the display
// process plus one per holder (pictures that predict from, or substitute
// from, this frame).
func newPlanFrame(pool *frame.Pool, p *picState) *frame.Frame {
	f := pool.Get()
	f.Retain(1 + p.deps)
	f.PictureType = "?IPB"[int(p.hdr.Type)]
	f.TemporalRef = p.hdr.TemporalReference
	p.frame = f
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

// decodePlanPic decodes or substitutes one planned picture into its
// frame (the single-worker-per-picture executor shared by the sequential
// and GOP-grain modes, the service's sessions and the trace generator). The
// frames of the references and substitution source must be complete.
func decodePlanPic(seq *mpeg2.SequenceHeader, p *picState, wi int, opt Options, scr *sliceScratch) (decoder.WorkStats, ErrorStats, error) {
	f := p.frame
	var work decoder.WorkStats
	var es ErrorStats
	if p.fate == fateSubstitute {
		substitute(p)
		return work, es, nil
	}
	refs := picRefs(p)
	scr.cov.reset(p.params.MBWidth * p.params.MBHeight)
	last := len(p.rng.Slices) - 1
	for _, group := range p.groups {
		for _, si := range group {
			w, addrs, err := decodeSliceRange(p.data, seq, &p.hdr, &p.params, p.rng.Slices[si], p.sliceBound(si), refs, f, wi, opt.Tracer, scr)
			work.Add(w)
			if err != nil {
				if opt.Resilience == FailFast {
					return work, es, err
				}
				es.DamagedSlices++
				if si != last {
					es.Resyncs++
				}
				continue
			}
			for _, a := range addrs {
				scr.cov.add(a)
			}
		}
	}
	return work, es, concealUncovered(p, &scr.cov, opt, &es)
}

// concealUncovered is the completion step of a picture decoded on one
// worker: every macroblock cov lacks is concealed from the picture's
// reference and tallied into es — or, under FailFast, reported.
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
// slices, or one segment of a split slice. Damage is tallied into es and
// split activity into sst; reconstructed macroblock addresses are
// appended to taskAddrs; with Options.Profile each slice of the group, or
// the segment, is timed into p.prof[ti]. A non-nil error is only possible
// under FailFast.
func runPlanSliceTask(seq *mpeg2.SequenceHeader, p *picState, ti, wi int, opt Options, scr *sliceScratch, work *decoder.WorkStats, es *ErrorStats, sst *SplitStats, taskAddrs *[]int) error {
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
		w, addrs, err := runSegment(seq, &p.hdr, &p.params, p.data, refs, p.frame, j, seg, wi, p.rowwise, opt, opt.Tracer, scr, sst)
		work.Add(w)
		lap(prof, 0, &t0)
		if err != nil {
			if opt.Resilience == FailFast {
				return err
			}
			es.DamagedSlices++
			if j.si != last {
				es.Resyncs++
			}
			return nil
		}
		*taskAddrs = append(*taskAddrs, addrs...)
		return nil
	}
	for k, si := range p.groups[gi] {
		w, addrs, err := decodeSliceRange(p.data, seq, &p.hdr, &p.params, p.rng.Slices[si], p.sliceBound(si), refs, p.frame, wi, opt.Tracer, scr)
		work.Add(w)
		lap(prof, k, &t0)
		if err != nil {
			if opt.Resilience == FailFast {
				return err
			}
			es.DamagedSlices++
			if si != last {
				es.Resyncs++
			}
			continue
		}
		*taskAddrs = append(*taskAddrs, addrs...)
	}
	return nil
}
