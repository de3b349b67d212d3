package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	rtrace "runtime/trace"

	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/kernels"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/obs"
	"mpeg2par/internal/sched"
	"mpeg2par/internal/vlc"
)

// Unit is one group of pictures handed from the scan to the executor. The
// streaming scanner makes Data an owned copy of the group's bytes (so the
// scan window can slide on) with the scanned range rebased to that copy; a
// decode of a scanned stream lends every unit the whole stream (Base 0,
// the range as scanned). Either way the unit is charged for the bytes of
// its range, and nothing writes to Data.
type Unit struct {
	G    int    // group index, in stream order
	Base int    // absolute stream offset of Data[0]
	Data []byte // the bytes Range indexes into
	// Range is the group's scanned structure, every offset an index into
	// Data.
	Range GOPRange
	// Seq is the sequence header in force when the group closed. The
	// scan rejects (strict) or ignores (lenient) mid-stream geometry
	// changes, so every unit of a stream carries the same header.
	Seq mpeg2.SequenceHeader
}

// ShedSavings returns the compressed bytes a shed level would avoid
// decoding from this unit: the B pictures' bytes for ShedB, B plus P
// bytes for ShedRef (substitution itself costs ~nothing). The service's
// slack predictor converts it through the cost model into the time a
// per-frame shed would buy back for an already-doomed unit.
func (u *Unit) ShedSavings(l ShedLevel) int64 {
	if l == ShedNone {
		return 0
	}
	var b int64
	for i := range u.Range.Pictures {
		p := &u.Range.Pictures[i]
		if p.Type == vlc.CodingB || (l >= ShedRef && p.Type == vlc.CodingP) {
			b += int64(p.End - p.Offset)
		}
	}
	return b
}

// unitState tracks one in-flight unit: its buffered bytes stay charged
// against the pipeline gauge, and its scan-ahead window slot stays
// occupied, until the last picture decoded from it completes.
type unitState struct {
	exec      *StreamExecutor
	bytes     int64
	remaining int32       // pictures (or whole-group tasks) not yet completed
	pics      []*picState // the unit's planned pictures
}

// retire records one completed picture; the last one releases the
// unit's bytes and its window slot, unblocking the scan process, and takes
// the unit's pictures out of the plan — unless the run has failed, when
// Finish needs them to reclaim their frames.
func (u *unitState) retire() {
	if atomic.AddInt32(&u.remaining, -1) != 0 {
		return
	}
	e := u.exec
	if e.errs.get() == nil {
		e.pb.pl.retire(u.pics)
	}
	e.mu.Lock()
	e.unitBytes -= u.bytes
	e.mu.Unlock()
	<-e.sem
}

// gopTask is one coarse-grained streaming task: decode every picture of
// a planned group (unit.pics; what they reference is among them).
type gopTask struct {
	g    int
	off  int // absolute stream offset, for error messages
	unit *unitState
}

// StreamExecutor is the decode engine: the scan Feeds it groups of
// pictures as they are discovered (or, from a finished scan, one after the
// other), workers decode the plan grown from them, and the display process
// delivers frames in display order as soon as they are ready — all long
// before the stream has been fully read.
//
// Feed and Finish must be called from a single goroutine (the scan
// process); the workers it starts are internal. How the stream is cut into
// reads never shows in the output: the plan of a group depends on the
// group alone.
type StreamExecutor struct {
	ctx context.Context
	opt Options
	st  *Stats

	workers int
	// sem is the scan-ahead window: one slot per in-flight unit. Feed
	// blocks acquiring a slot — the backpressure that bounds buffered
	// bitstream bytes by the window, never by stream length.
	sem chan struct{}

	seq       mpeg2.SequenceHeader
	pb        *planBuilder
	pool      *frame.Pool
	disp      *displayProc
	started   bool
	wallStart time.Time

	gopTasks chan gopTask // ModeGOP / ModeSequential intake
	q        *sliceQueue  // slice-mode intake

	// Online auto-tuning (ModeAuto only). The tuner collects busy/wait
	// from the workers; Feed re-evaluates it at every GOP boundary and
	// the gate parks workers above the resulting limit.
	tuner *sched.Tuner
	gate  *workerGate

	mu        sync.Mutex
	winBytes  int64 // scanner window bytes (AdjustBuffered)
	unitBytes int64 // live unit bytes
	peakBytes int64
	leadPeak  int

	errs     firstErr
	fail     chan struct{} // closed when the first error latches
	failOnce sync.Once
	workMu   sync.Mutex
	wg       sync.WaitGroup
}

// setErr latches the first error and wakes a Feed blocked on the
// window semaphore — without it, a worker failing with units still in
// flight would leave the scan process waiting on slots that will never
// free.
func (e *StreamExecutor) setErr(err error) {
	if err == nil {
		return
	}
	e.errs.set(err)
	e.failOnce.Do(func() { close(e.fail) })
}

// NewStreamExecutor prepares a streaming executor. Workers start lazily
// at the first Feed (the frame geometry arrives with the first unit).
// ModeSequential runs on one worker regardless of Options.Workers: the
// plan in decode order, the baseline every parallel mode must match.
func NewStreamExecutor(ctx context.Context, opt Options) (*StreamExecutor, error) {
	if opt.Workers < 1 {
		return nil, badOption("Workers=%d (need at least one worker)", opt.Workers)
	}
	if opt.SplitParts < 0 {
		return nil, badOption("SplitParts=%d (must be >= 0)", opt.SplitParts)
	}
	w := opt.Workers
	if opt.Mode == ModeSequential {
		w = 1
	}
	switch opt.Mode {
	case ModeGOP, ModeSliceSimple, ModeSliceImproved, ModeSequential:
	case ModeAuto:
		// Resolved at the first Feed, when the first group's geometry is
		// known; Options.Workers is the ceiling the policy chooses under.
	default:
		return nil, badOption("Mode=%d (unknown mode)", int(opt.Mode))
	}
	return &StreamExecutor{
		ctx:     ctx,
		opt:     opt,
		workers: w,
		sem:     make(chan struct{}, opt.EffectiveMaxInFlight()),
		fail:    make(chan struct{}),
		st:      &Stats{Mode: opt.Mode, Workers: w, Kernels: kernels.Describe()},
	}, nil
}

// start spins up the executor once the first unit has arrived. For
// ModeAuto the first group's geometry, projected across the scan-ahead
// window, resolves the mode and worker count here; the mode is fixed
// for the rest of the stream (only the worker limit adapts online).
func (e *StreamExecutor) start(u *Unit) {
	e.started = true
	e.wallStart = time.Now()
	if e.opt.Mode == ModeAuto {
		e.resolveAuto(u)
	}
	e.pb = newPlanBuilder(&e.seq, e.opt)
	e.pb.setSplit(e.opt)
	e.pool = frame.NewPool(e.seq.Width, e.seq.Height)
	if e.opt.Resilience != FailFast {
		// The slice queue calls Get under its lock; a GOP-grain worker
		// calls it right before the decode it warms the frame for.
		scrub := frame.ScrubOnGet
		if e.opt.Mode == ModeSliceSimple || e.opt.Mode == ModeSliceImproved {
			scrub = frame.ScrubOnPut
		}
		e.pool.SetScrub(scrub)
	}
	e.disp = newDisplay(e.pool, e.opt.Sink, e.opt.Obs)
	e.st.WorkerStats = make([]WorkerStats, e.workers)
	e.opt.Obs.SetMeta(e.opt.Mode.String(), e.workers)
	switch e.opt.Mode {
	case ModeSliceSimple, ModeSliceImproved:
		e.q = newSliceQueue(e.pool, e.opt) // Feed appends, Finish closes
		if e.gate != nil {
			e.gate.park = e.q.idle
		}
		for wi := 0; wi < e.workers; wi++ {
			e.wg.Add(1)
			go e.sliceWorker(wi)
		}
	default:
		// Each queued task holds a window slot, so the channel never
		// blocks a send at this capacity.
		e.gopTasks = make(chan gopTask, cap(e.sem))
		for wi := 0; wi < e.workers; wi++ {
			e.wg.Add(1)
			go e.gopWorker(wi)
		}
	}
}

// resolveAuto picks the mode and worker count for an auto-tuned
// pipeline from the first group's geometry, projected across the
// scan-ahead window (a single group in isolation would always look
// like a slice-grain workload). The chosen worker count becomes the
// online tuner's ceiling; the gate parks workers it tunes away.
func (e *StreamExecutor) resolveAuto(u *Unit) {
	g := projectGeometry(autoGeometry([]GOPRange{u.Range}), e.opt.EffectiveMaxInFlight())
	c := sched.Choose(g, e.opt.Workers, e.opt.Cost)
	e.opt.Mode = modeOfHint(c.Mode)
	e.opt.Workers = c.Workers
	e.workers = c.Workers
	if e.opt.Mode == ModeSequential {
		e.workers = 1
	}
	e.st.Mode = e.opt.Mode
	e.st.Workers = e.workers
	e.st.Auto = &AutoDecision{
		Mode:             e.opt.Mode,
		Workers:          e.workers,
		Reason:           c.Reason + " (projected from first group)",
		FinalWorkerLimit: e.workers,
	}
	if e.workers > 1 {
		e.tuner = sched.NewTuner(e.workers, e.workers)
		e.gate = newWorkerGate(e.workers)
	}
}

// Feed hands one scanned group of pictures to the workers. It blocks
// while the scan-ahead window is full (backpressure against the scan
// process) and returns early with the context's error on cancellation,
// or with the first worker error once one is latched.
func (e *StreamExecutor) Feed(u Unit) error {
	if err := e.errs.get(); err != nil {
		return err
	}
	feedStart := time.Now()
	select {
	case e.sem <- struct{}{}:
	case <-e.ctx.Done():
		return e.ctx.Err()
	case <-e.fail:
		return e.errs.get()
	}
	e.opt.Obs.Record(obs.KindFeed, obs.LaneScan, feedStart, time.Since(feedStart), u.G, -1, -1)
	if !e.started {
		e.seq = u.Seq
		e.start(&u)
	}
	us := &unitState{exec: e, bytes: int64(u.Range.End - u.Range.Offset)}
	e.mu.Lock()
	e.unitBytes += us.bytes
	if t := e.unitBytes + e.winBytes; t > e.peakBytes {
		e.peakBytes = t
	}
	e.mu.Unlock()

	ps, err := e.pb.addGOP(u.Data, u.G, &u.Range)
	if err != nil {
		e.setErr(err)
		return err
	}
	if e.tuner != nil {
		// GOP boundary: close the utilization window and move the
		// active-worker limit at most one step. Feed is the single scan
		// goroutine, as Reevaluate requires.
		if lim, changed := e.tuner.Reevaluate(); changed {
			e.gate.setLimit(lim)
			e.st.Auto.FinalWorkerLimit = lim
		}
		e.st.Auto.Reevals++
	}
	us.pics = ps
	if e.opt.Profile {
		e.profile(u.G, ps)
	}
	if len(ps) == 0 {
		// Empty or policy-dropped group: nothing will decode from the
		// unit, release it immediately.
		us.remaining = 1
		us.retire()
		return nil
	}
	switch e.opt.Mode {
	case ModeSliceSimple, ModeSliceImproved:
		us.remaining = int32(len(ps))
		for _, p := range ps {
			p.unit = us
		}
		e.q.append(ps)
	default:
		us.remaining = 1
		e.gopTasks <- gopTask{g: u.G, off: u.Base + u.Range.Offset, unit: us}
	}
	return nil
}

// profile readies the run's cost tables for one planned group: a GOPCosts
// entry per group fed, or a SliceProf entry per planned picture whose
// SliceCosts the picture's tasks fill in as they run — one cost per slice
// of a row-group task and one per segment task, in task order, which on a
// clean stream is slice order.
func (e *StreamExecutor) profile(g int, ps []*picState) {
	if e.q == nil {
		e.workMu.Lock()
		for len(e.st.GOPCosts) <= g {
			e.st.GOPCosts = append(e.st.GOPCosts, TaskCost{})
		}
		e.workMu.Unlock()
		return
	}
	for _, p := range ps {
		width := func(ti int) int {
			if base, j, _ := p.taskAt(ti); j == nil && p.fate == fateDecode {
				return len(p.groups[base])
			}
			return 1
		}
		n := 0
		for ti := 0; ti < p.nTasks; ti++ {
			n += width(ti)
		}
		costs := make([]time.Duration, n)
		p.prof = make([][]time.Duration, p.nTasks)
		for ti, rest := 0, costs; ti < p.nTasks; ti++ {
			p.prof[ti], rest = rest[:width(ti)], rest[width(ti):]
		}
		e.st.SliceProf = append(e.st.SliceProf, PicProfile{
			Ref: p.isRef, Type: "?IPB"[int(p.hdr.Type)], SliceCosts: costs,
			DisplayIdx: p.displayIdx, RowWindow: picRowWindow(p),
		})
	}
}

// AdjustBuffered charges (or releases) scanner window bytes against the
// pipeline's in-flight gauge.
func (e *StreamExecutor) AdjustBuffered(delta int64) {
	e.mu.Lock()
	e.winBytes += delta
	if t := e.unitBytes + e.winBytes; t > e.peakBytes {
		e.peakBytes = t
	}
	e.mu.Unlock()
}

// NoteScanned samples the scan-lead gauge: how far the scan process has
// run ahead of the display process, in pictures.
func (e *StreamExecutor) NoteScanned(pictures int) {
	displayed := 0
	if e.disp != nil {
		displayed = e.disp.count()
	}
	lead := pictures - displayed
	e.mu.Lock()
	if lead > e.leadPeak {
		e.leadPeak = lead
	}
	e.mu.Unlock()
}

func (e *StreamExecutor) fillGauges() {
	e.mu.Lock()
	e.st.PeakInFlightBytes = e.peakBytes
	e.st.ScanLeadPeak = e.leadPeak
	e.mu.Unlock()
}

// Finish closes the intake, joins the workers, and completes the run.
// scanErr is the scan side's verdict (nil on a clean end of stream, the
// context's error on cancellation); any error — from either side —
// switches Finish into teardown: the reorder buffer's frames and those
// of every picture still in the plan are forcibly reclaimed (a picture
// that has left it has handed its frame to the display process and been
// released by all that read it), so a cancelled pipeline holds no picture
// memory. Stats are returned in both cases;
// LeakedFrameBytes reports pool bytes still unaccounted afterwards
// (always zero — the cancellation tests assert it).
func (e *StreamExecutor) Finish(scanErr error) (*Stats, error) {
	// Latch the scan side's verdict so workers drain queued tasks
	// instead of decoding them after a cancellation.
	e.setErr(scanErr)
	if e.started {
		if e.q != nil {
			if scanErr != nil {
				e.q.fail()
			}
			e.q.close()
		} else {
			close(e.gopTasks)
		}
		e.gate.close() // wake parked workers so they can drain and exit
		e.wg.Wait()
	}
	if e.tuner != nil {
		e.st.Auto.FinalWorkerLimit = e.tuner.Limit()
	}
	st := e.st
	err := e.errs.get()
	if err == nil {
		err = scanErr
	}
	if e.started {
		st.Wall = time.Since(e.wallStart)
		st.Errors.Add(e.pb.pl.pre)
		st.Concealed = st.Errors.ConcealedMBs
		st.Pictures = e.pb.pl.planned
	}
	defer e.fillGauges()
	if err != nil {
		if e.started {
			e.disp.abandon()
			for _, p := range e.pb.pl.pics {
				if p.frame != nil {
					e.pool.Reclaim(p.frame)
				}
			}
			st.LeakedFrameBytes = st.poolGauges(e.pool)
		}
		return st, err
	}
	if !e.started {
		return st, nil
	}
	displayed, dispErr := e.disp.finish()
	st.Displayed = displayed
	st.LeakedFrameBytes = st.poolGauges(e.pool)
	if dispErr != nil {
		return st, dispErr
	}
	if displayed != st.Pictures {
		return st, fmt.Errorf("core: displayed %d of %d pictures", displayed, st.Pictures)
	}
	return st, nil
}

// gopWorker is the coarse-grained worker: one task decodes a whole group
// of pictures (and, with one worker, the plan in decode order — the
// sequential baseline).
func (e *StreamExecutor) gopWorker(wi int) {
	defer e.wg.Done()
	obs.Do(e.opt.Mode.String(), wi, func() {
		ws := &e.st.WorkerStats[wi]
		var scr sliceScratch
		for {
			e.gate.enter(wi)
			t0 := time.Now()
			t, ok := <-e.gopTasks
			wait := time.Since(t0)
			ws.Wait += wait
			e.tuner.NoteWait(wait)
			e.opt.Obs.Record(obs.KindWait, wi, t0, wait, -1, -1, -1)
			if !ok {
				return
			}
			if e.errs.get() == nil {
				e.runGOPTask(&t, wi, ws, &scr)
			}
			t.unit.retire()
		}
	})
}

func (e *StreamExecutor) runGOPTask(t *gopTask, wi int, ws *WorkerStats, scr *sliceScratch) {
	t1 := time.Now()
	reg := rtrace.StartRegion(context.Background(), "mpeg2par.gopTask")
	defer reg.End()
	var work decoder.WorkStats
	var es ErrorStats
	var picCosts []time.Duration // with Options.Profile, what each picture took
	for _, p := range t.unit.pics {
		tp := time.Now()
		newPlanFrame(e.pool, p)
		w, pes, err := decodePlanPic(&e.seq, p, wi, e.opt, scr)
		work.Add(w)
		es.Add(pes)
		if err != nil {
			e.setErr(fmt.Errorf("core: GOP %d at byte %d: %w", t.g, t.off, err))
			cost := time.Since(t1)
			ws.Busy += cost
			ws.Tasks++
			e.opt.Obs.Record(obs.KindTask, wi, t1, cost, t.g, -1, -1)
			return
		}
		releaseHolds(e.pool, p)
		e.disp.push(p.frame, p.displayIdx)
		if e.opt.Profile {
			picCosts = append(picCosts, time.Since(tp))
		}
	}
	cost := time.Since(t1)
	ws.Busy += cost
	ws.Tasks++
	e.tuner.NoteTask(cost)
	e.opt.Obs.Record(obs.KindTask, wi, t1, cost, t.g, -1, -1)
	e.opt.Cost.Observe(t.unit.bytes, cost)
	e.workMu.Lock()
	e.st.Work.Add(work)
	e.st.Errors.Add(es)
	if e.opt.Profile {
		e.st.GOPCosts[t.g] = TaskCost{Cost: cost, Work: work, Pictures: picCosts}
	}
	e.workMu.Unlock()
}

// sliceWorker is the fine-grained worker, on the 2-D task queue: the queue
// grows while the scan runs, and each completed picture retires its share
// of the unit that carried its bytes.
func (e *StreamExecutor) sliceWorker(wi int) {
	defer e.wg.Done()
	obs.Do(e.opt.Mode.String(), wi, func() {
		ws := &e.st.WorkerStats[wi]
		var scr sliceScratch
		var taskAddrs []int
		// The worker's own tallies, merged into the run's once.
		var work decoder.WorkStats
		var es ErrorStats
		var sst SplitStats
		defer func() {
			e.workMu.Lock()
			e.st.Work.Add(work)
			e.st.Errors.Add(es)
			e.st.Split.Add(sst)
			e.workMu.Unlock()
		}()
		for {
			e.gate.enter(wi)
			p, ti, wait, ok := e.q.take(wi, ws)
			e.tuner.NoteWait(wait)
			if !ok {
				return
			}
			t0 := time.Now()
			reg := rtrace.StartRegion(context.Background(), "mpeg2par.sliceTask")
			taskAddrs = taskAddrs[:0]
			err := runPlanSliceTask(&e.seq, p, ti, wi, e.opt, &scr, &work, &es, &sst, &taskAddrs)
			reg.End()
			cost := time.Since(t0)
			ws.Busy += cost
			ws.Tasks++
			e.tuner.NoteTask(cost)
			kind := obs.KindTask
			if _, j, _ := p.taskAt(ti); j != nil {
				kind = obs.KindSegment
			}
			e.opt.Obs.Record(kind, wi, t0, cost, p.gop, p.displayIdx, ti)
			if p.fate == fateDecode {
				e.opt.Cost.Observe(taskBytes(p, ti), cost)
			}
			if err != nil { // only possible under FailFast
				e.setErr(err)
				e.q.fail()
				return
			}
			if e.q.finish(p, taskAddrs) {
				if p.fate == fateDecode {
					if miss := e.q.missing(p); len(miss) > 0 {
						if e.opt.Resilience == FailFast {
							total := p.params.MBWidth * p.params.MBHeight
							e.setErr(fmt.Errorf("core: picture at display %d covered %d of %d macroblocks",
								p.displayIdx, total-len(miss), total))
							e.q.fail()
							return
						}
						concealMBs(p, miss)
						es.ConcealedMBs += len(miss)
					}
				}
				e.q.completePic(p)
				releaseHolds(e.pool, p)
				e.disp.push(p.frame, p.displayIdx)
				e.q.shipPic(p)
				p.unit.retire()
			}
		}
	})
}
