package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	rtrace "runtime/trace"

	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/obs"
)

// decodeResilient executes a planned decode. ModeSequential always runs
// here (it is the single-worker reference the golden tests compare the
// parallel modes against); the other modes arrive once a resilience
// policy above FailFast is selected. All variants execute the same plan
// (see buildPlan) — they differ only in what runs concurrently, never in
// what gets decoded, substituted, or concealed.
func decodeResilient(data []byte, m *StreamMap, opt Options, st *Stats) error {
	pl, err := buildPlan(data, m, opt)
	if err != nil {
		return err
	}
	st.Errors.Add(pl.pre)
	switch opt.Mode {
	case ModeSequential:
		return decodeResilientSeq(m, pl, opt, st)
	case ModeGOP:
		return decodeResilientGOP(m, pl, opt, st)
	case ModeSliceSimple, ModeSliceImproved:
		return decodeResilientSlice(m, pl, opt, st)
	}
	return fmt.Errorf("core: unknown mode %d", int(opt.Mode))
}

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
// and GOP-grain modes, batch and streaming). The frames of the references
// and substitution source must be complete.
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

// finishPlan is the shared epilogue: drain the display process and fill
// the run's bookkeeping.
func finishPlan(pl *plan, pool *frame.Pool, disp *displayProc, st *Stats, wallStart time.Time) error {
	displayed, dispErr := disp.finish()
	st.Wall = time.Since(wallStart)
	if dispErr != nil {
		return dispErr
	}
	st.Pictures = pl.planned
	st.Displayed = displayed
	st.poolGauges(pool)
	if displayed != pl.planned {
		return fmt.Errorf("core: displayed %d of %d pictures", displayed, pl.planned)
	}
	return nil
}

// decodeResilientSeq executes the plan on one worker in decode order —
// the baseline every parallel mode must match bit-exactly.
func decodeResilientSeq(m *StreamMap, pl *plan, opt Options, st *Stats) error {
	pool := frame.NewPool(m.Seq.Width, m.Seq.Height)
	if opt.Resilience != FailFast {
		pool.SetScrub(frame.ScrubOnGet)
	}
	disp := newDisplay(pool, opt.Sink, opt.Obs)
	st.WorkerStats = make([]WorkerStats, 1)
	ws := &st.WorkerStats[0]
	var scr sliceScratch

	wallStart := time.Now()
	var seqErr error
	obs.Do(opt.Mode.String(), 0, func() {
		for _, p := range pl.pics {
			newPlanFrame(pool, p)
			t0 := time.Now()
			reg := rtrace.StartRegion(context.Background(), "mpeg2par.picTask")
			work, es, err := decodePlanPic(&m.Seq, p, 0, opt, &scr)
			reg.End()
			cost := time.Since(t0)
			ws.Busy += cost
			ws.Tasks++
			opt.Obs.Record(obs.KindTask, 0, t0, cost, p.gop, p.displayIdx, -1)
			st.Work.Add(work)
			st.Errors.Add(es)
			if err != nil {
				st.Wall = time.Since(wallStart)
				seqErr = fmt.Errorf("core: GOP %d at byte %d: %w", p.gop, m.GOPs[p.gop].Offset, err)
				return
			}
			releaseHolds(pool, p)
			disp.push(p.frame, p.displayIdx)
		}
	})
	if seqErr != nil {
		return seqErr
	}
	return finishPlan(pl, pool, disp, st, wallStart)
}

// decodeResilientGOP executes the plan at the paper's coarse grain: one
// task per kept GOP. The plan's per-GOP reference reset is what makes
// each task self-contained.
func decodeResilientGOP(m *StreamMap, pl *plan, opt Options, st *Stats) error {
	pool := frame.NewPool(m.Seq.Width, m.Seq.Height)
	pool.SetScrub(frame.ScrubOnGet) // concealed/substituted pixels must never leak stale content
	disp := newDisplay(pool, opt.Sink, opt.Obs)

	// Packed order over the kept groups (LPT by byte size by default).
	costs := make([]int64, len(pl.gops))
	for i, pg := range pl.gops {
		costs[i] = int64(m.GOPs[pg.g].End - m.GOPs[pg.g].Offset)
	}
	tasks := make(chan int, len(pl.gops))
	order := packOrder(costs, opt.Packing, opt.PackSeed)
	for gi := range pl.gops {
		if order != nil {
			gi = order[gi]
		}
		tasks <- gi
	}
	close(tasks)

	var errs firstErr
	st.WorkerStats = make([]WorkerStats, opt.Workers)
	var workMu sync.Mutex

	wallStart := time.Now()
	var wg sync.WaitGroup
	for wi := 0; wi < opt.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			obs.Do(opt.Mode.String(), wi, func() {
				ws := &st.WorkerStats[wi]
				var scr sliceScratch
				for {
					t0 := time.Now()
					gi, ok := <-tasks
					wait := time.Since(t0)
					ws.Wait += wait
					opt.Obs.Record(obs.KindWait, wi, t0, wait, -1, -1, -1)
					if !ok {
						return
					}
					if errs.get() != nil {
						continue // drain remaining tasks after a failure
					}
					pg := pl.gops[gi]
					t1 := time.Now()
					reg := rtrace.StartRegion(context.Background(), "mpeg2par.gopTask")
					var work decoder.WorkStats
					var es ErrorStats
					failed := false
					// Workers touch only their own GOP's picStates (plus the
					// frames within it), so no locking is needed on the plan.
					for _, p := range pg.pics {
						newPlanFrame(pool, p)
						w, e, err := decodePlanPic(&m.Seq, p, wi, opt, &scr)
						work.Add(w)
						es.Add(e)
						if err != nil {
							errs.set(fmt.Errorf("core: GOP %d at byte %d: %w", pg.g, m.GOPs[pg.g].Offset, err))
							failed = true
							break
						}
						releaseHolds(pool, p)
						disp.push(p.frame, p.displayIdx)
					}
					reg.End()
					cost := time.Since(t1)
					ws.Busy += cost
					ws.Tasks++
					opt.Obs.Record(obs.KindTask, wi, t1, cost, pg.g, -1, -1)
					opt.Cost.Observe(int64(m.GOPs[pg.g].End-m.GOPs[pg.g].Offset), cost)
					if failed {
						continue
					}
					workMu.Lock()
					st.Work.Add(work)
					st.Errors.Add(es)
					workMu.Unlock()
				}
			})
		}(wi)
	}
	wg.Wait()
	if err := errs.get(); err != nil {
		st.Wall = time.Since(wallStart)
		return err
	}
	return finishPlan(pl, pool, disp, st, wallStart)
}

// decodeResilientSlice executes the plan at the fine grain through the
// same 2-D task queue as the legacy slice modes; a task is one
// macroblock-row group (or the single substitution step of a dropped
// picture), so same-row slices of a corrupted stream can never race.
func decodeResilientSlice(m *StreamMap, pl *plan, opt Options, st *Stats) error {
	pool := frame.NewPool(m.Seq.Width, m.Seq.Height)
	pool.SetScrub(frame.ScrubOnPut) // take calls Get under q.mu
	disp := newDisplay(pool, opt.Sink, opt.Obs)

	q := newSliceQueue(pl.pics, pool, opt, true) // batch: the full plan is known up front

	var errs firstErr
	st.WorkerStats = make([]WorkerStats, opt.Workers)
	var workMu sync.Mutex

	wallStart := time.Now()
	var wg sync.WaitGroup
	for wi := 0; wi < opt.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			obs.Do(opt.Mode.String(), wi, func() {
				ws := &st.WorkerStats[wi]
				var scr sliceScratch
				var taskAddrs []int
				// The worker's own tallies, merged into the run's once.
				var work decoder.WorkStats
				var es ErrorStats
				var sst SplitStats
				defer func() {
					workMu.Lock()
					st.Work.Add(work)
					st.Errors.Add(es)
					st.Split.Add(sst)
					workMu.Unlock()
				}()
				for {
					p, ti, _, ok := q.take(wi, ws)
					if !ok {
						return
					}
					t0 := time.Now()
					reg := rtrace.StartRegion(context.Background(), "mpeg2par.sliceTask")
					taskAddrs = taskAddrs[:0]
					err := runPlanSliceTask(&m.Seq, p, ti, wi, opt, &scr, &work, &es, &sst, &taskAddrs)
					reg.End()
					cost := time.Since(t0)
					ws.Busy += cost
					ws.Tasks++
					kind := obs.KindTask
					if _, j, _ := p.taskAt(ti); j != nil {
						kind = obs.KindSegment
					}
					opt.Obs.Record(kind, wi, t0, cost, p.gop, p.displayIdx, ti)
					if p.fate == fateDecode {
						opt.Cost.Observe(taskBytes(p, ti), cost)
					}
					if err != nil { // only possible under FailFast (never batch)
						errs.set(err)
						q.fail()
						return
					}
					if q.finish(p, taskAddrs) {
						if p.fate == fateDecode {
							if miss := q.missing(p); len(miss) > 0 {
								concealMBs(p, miss)
								es.ConcealedMBs += len(miss)
							}
						}
						q.completePic(p)
						releaseHolds(pool, p)
						disp.push(p.frame, p.displayIdx)
						q.shipPic(p)
					}
				}
			})
		}(wi)
	}
	wg.Wait()
	if err := errs.get(); err != nil {
		st.Wall = time.Since(wallStart)
		return err
	}
	return finishPlan(pl, pool, disp, st, wallStart)
}

// runPlanSliceTask executes task ti of planned picture p: the single
// substitution step of a dropped picture, one macroblock-row group of
// slices, or one segment of a split slice. Damage is tallied into es and
// split activity into sst; reconstructed macroblock addresses are
// appended to taskAddrs. Shared by the batch and streaming slice
// executors; a non-nil error is only possible under FailFast (the
// streaming path runs that policy through the plan executor too).
func runPlanSliceTask(seq *mpeg2.SequenceHeader, p *picState, ti, wi int, opt Options, scr *sliceScratch, work *decoder.WorkStats, es *ErrorStats, sst *SplitStats, taskAddrs *[]int) error {
	if p.fate == fateSubstitute {
		substitute(p)
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
	for _, si := range p.groups[gi] {
		w, addrs, err := decodeSliceRange(p.data, seq, &p.hdr, &p.params, p.rng.Slices[si], p.sliceBound(si), refs, p.frame, wi, opt.Tracer, scr)
		work.Add(w)
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
