package core

import (
	"sync"
	"time"

	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/obs"
)

// The assist path: deadline-tight rescue decoding for session tasks.
//
// A session always executes at GOP grain — one task decodes a whole
// group of pictures on one worker, which is the right steady-state
// grain for N streams on one pool. But when the service's slack
// predictor sees a frame that will *just* miss its deadline on one
// worker, and the pool has idle workers to spare, finer grain inside
// this one task buys the latency back: indexed tall slices fan out as
// parallel row segments through the split-decode verify-or-fallback
// chain (internal/core/split.go), which is bit-exact by construction —
// a failed verification re-decodes the slice sequentially, so assist
// can cost time but never pixels or error fate. decodePlanPic, given a
// fan-out width, hands each such slice to runSegmentsAssist.

// runSegmentsAssist executes every segment of one split slice across up
// to `parts` goroutines (segment 0 inline on the caller, reusing its
// scratch) and returns the join's verdict: on a verify hit the
// concatenated parallel coverage, on a miss the sequential fallback's
// result — in both cases indistinguishable from a whole-slice decode.
// Work and split stats from every segment are summed; the returned
// error is only ever the fallback's, matching decodeSliceRange's
// contract at the call site.
func runSegmentsAssist(seq *mpeg2.SequenceHeader, p *picState, j *splitJoin, refs decoder.Refs, dst *frame.Frame, wi int, opt Options, scr *sliceScratch, sst *SplitStats, parts int) (decoder.WorkStats, []int, error) {
	nSeg := len(j.res)
	type segOut struct {
		work  decoder.WorkStats
		addrs []int
		err   error
		sst   SplitStats
	}
	outs := make([]segOut, nSeg)
	run := func(seg, lane int, s *sliceScratch, o *segOut) {
		t0 := time.Now()
		// The slice is adopted or discarded in one piece (rowwise false): only
		// the last segment to finish returns a result; the others park theirs
		// inside the join state.
		o.work, o.addrs, o.err = runSegment(seq, &p.hdr, &p.params, p.data, refs, dst, j, seg, lane, false, opt, opt.Tracer, s, &o.sst)
		opt.Obs.Record(obs.KindSegment, lane, t0, time.Since(t0), p.gop, p.displayIdx, seg)
	}
	if parts > nSeg {
		parts = nSeg
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, parts-1)
	for seg := 1; seg < nSeg; seg++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(seg int) {
			defer wg.Done()
			defer func() { <-sem }()
			var s sliceScratch
			run(seg, wi, &s, &outs[seg])
		}(seg)
	}
	run(0, wi, scr, &outs[0])
	wg.Wait()
	var work decoder.WorkStats
	var addrs []int
	var err error
	for k := range outs {
		work.Add(outs[k].work)
		sst.Add(outs[k].sst)
		if len(outs[k].addrs) > 0 || outs[k].err != nil {
			addrs, err = outs[k].addrs, outs[k].err
		}
	}
	return work, addrs, err
}
