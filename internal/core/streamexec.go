package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/obs"
	"mpeg2par/internal/sched"
	"mpeg2par/internal/vlc"
)

// Unit is one group of pictures handed from the scan to the executor. The
// streaming scanner makes Data the group's bytes, with the scanned range
// rebased to them: the caller's bytes in place for an in-memory stream, an
// owned copy for a reader (so the scan window can slide on). A decode of a
// scanned stream lends every unit the whole stream (Base 0, the range as
// scanned). Either way the unit is charged for the bytes of its range — for
// an in-memory stream, bytes the caller holds, not a copy — and nothing
// writes to Data.
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
	pics      []*picState // slice grain: the pictures to take out of the plan
}

// retire records one completed picture (or group task); the last one
// releases the unit's bytes and its window slot, unblocking the scan
// process, and takes the unit's slice-grain pictures out of the plan —
// unless the run has failed, when Finish needs them to reclaim their
// frames. (Session.Run takes a whole group out of the plan itself.)
func (u *unitState) retire() {
	if atomic.AddInt32(&u.remaining, -1) != 0 {
		return
	}
	e := u.exec
	if e.s.Err() == nil {
		e.s.pb.pl.retire(u.pics)
	}
	e.mu.Lock()
	e.unitBytes -= u.bytes
	e.mu.Unlock()
	<-e.sem
}

// StreamExecutor is the single-stream decode engine: a Session plus a
// scan-ahead window and workers of its own. The scan Feeds it groups of
// pictures as they are discovered (or, from a finished scan, one after
// the other), the workers decode the plan the session grows from them,
// and the session's display process delivers frames in display order as
// soon as they are ready — all long before the stream has been fully
// read. GOP-grain and sequential workers pull the session's tasks and
// execute them through Session.Run, as the service's pool does; slice
// workers take the same plan's tasks from a slice queue.
//
// Feed and Finish must be called from a single goroutine (the scan
// process); the workers it starts are internal. How the stream is cut into
// reads never shows in the output: the plan of a group depends on the
// group alone.
type StreamExecutor struct {
	ctx context.Context
	s   *Session

	workers int
	// sem is the scan-ahead window: one slot per in-flight unit. Feed
	// blocks acquiring a slot — the backpressure that bounds buffered
	// bitstream bytes by the window, never by stream length.
	sem chan struct{}

	tasks chan *SessionTask // ModeGOP / ModeSequential intake
	q     *sliceQueue       // slice-mode intake

	mu        sync.Mutex
	winBytes  int64 // scanner window bytes (AdjustBuffered)
	unitBytes int64 // live unit bytes
	peakBytes int64
	leadPeak  int

	wg sync.WaitGroup
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
		s:       newSession(opt),
		workers: opt.EffectiveWorkers(),
		sem:     make(chan struct{}, opt.EffectiveMaxInFlight()),
	}, nil
}

// start spins up the executor once the first unit has arrived. For
// ModeAuto the first group's geometry, projected across the scan-ahead
// window, resolves the mode and worker count here, for the rest of the
// stream.
func (e *StreamExecutor) start(u *Unit) {
	opt := &e.s.opt
	if opt.Mode == ModeAuto {
		e.resolveAuto(u)
	}
	e.s.start(u)
	e.s.st.WorkerStats = make([]WorkerStats, e.workers)
	opt.Obs.SetMeta(opt.Mode.String(), e.workers)
	if opt.Mode.sliceGrain() {
		e.q = newSliceQueue(e.s.pool, *opt) // Feed appends, Finish closes
		for wi := 0; wi < e.workers; wi++ {
			e.wg.Add(1)
			go e.sliceWorker(wi)
		}
		return
	}
	// Each queued task holds a window slot, so the channel never blocks
	// a send at this capacity.
	e.tasks = make(chan *SessionTask, cap(e.sem))
	for wi := 0; wi < e.workers; wi++ {
		e.wg.Add(1)
		go e.gopWorker(wi)
	}
}

// resolveAuto picks the mode and worker count for an auto-tuned
// pipeline from the first group's geometry, projected across the
// scan-ahead window (a single group in isolation would always look
// like a slice-grain workload).
func (e *StreamExecutor) resolveAuto(u *Unit) {
	opt, st := &e.s.opt, e.s.st
	g := projectGeometry(autoGeometry([]GOPRange{u.Range}), opt.EffectiveMaxInFlight())
	c := sched.Choose(g, opt.Workers, opt.Cost)
	opt.Mode = modeOfHint(c.Mode)
	opt.Workers = c.Workers
	e.workers = opt.EffectiveWorkers()
	st.Mode = opt.Mode
	st.Workers = e.workers
	st.Auto = &AutoDecision{
		Mode:    opt.Mode,
		Workers: e.workers,
		Reason:  c.Reason + " (projected from first group)",
	}
}

// Feed hands one scanned group of pictures to the workers. It blocks
// while the scan-ahead window is full (backpressure against the scan
// process) and returns early with the context's error on cancellation,
// or with the first worker error once one is latched.
func (e *StreamExecutor) Feed(u Unit) error {
	s := e.s
	if err := s.Err(); err != nil {
		return err
	}
	feedStart := time.Now()
	select {
	case e.sem <- struct{}{}:
	case <-e.ctx.Done():
		return e.ctx.Err()
	case <-s.errs.done:
		return s.Err()
	}
	s.opt.Obs.Record(obs.KindFeed, obs.LaneScan, feedStart, time.Since(feedStart), u.G, -1, -1)
	if !s.started {
		e.start(&u)
	}
	us := &unitState{exec: e, bytes: int64(u.Range.End - u.Range.Offset)}
	e.mu.Lock()
	e.unitBytes += us.bytes
	if t := e.unitBytes + e.winBytes; t > e.peakBytes {
		e.peakBytes = t
	}
	e.mu.Unlock()

	t, err := s.FeedShed(u, ShedNone)
	if err != nil {
		return err
	}
	switch {
	case t == nil:
		// Empty or policy-dropped group: nothing will decode from the
		// unit, release it immediately.
		us.remaining = 1
		us.retire()
	case e.q != nil:
		us.remaining = int32(len(t.pics))
		us.pics = t.pics
		for _, p := range t.pics {
			p.unit = us
		}
		e.q.append(t.pics)
	default:
		us.remaining = 1
		t.unit = us
		e.tasks <- t
	}
	return nil
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
	if e.s.disp != nil {
		displayed = e.s.disp.count()
	}
	lead := pictures - displayed
	e.mu.Lock()
	if lead > e.leadPeak {
		e.leadPeak = lead
	}
	e.mu.Unlock()
}

// Finish closes the intake, joins the workers, and completes the run
// through the session's teardown (Session.Finish). scanErr is the scan
// side's verdict (nil on a clean end of stream, the context's error on
// cancellation); it is latched first, so that workers drain queued tasks
// instead of decoding them after a cancellation.
func (e *StreamExecutor) Finish(scanErr error) (*Stats, error) {
	e.s.Abort(scanErr)
	if e.s.started {
		if e.q != nil {
			if scanErr != nil {
				e.q.fail()
			}
			e.q.close()
		} else {
			close(e.tasks)
		}
		e.wg.Wait()
	}
	st := e.s.st
	if e.q != nil {
		st.Work.Add(e.q.sum.work)
		st.Errors.Add(e.q.sum.es)
		st.Split.Add(e.q.sum.sst)
	}
	e.mu.Lock()
	st.PeakInFlightBytes = e.peakBytes
	st.ScanLeadPeak = e.leadPeak
	e.mu.Unlock()
	return e.s.Finish(scanErr)
}

// gopWorker is the coarse-grained worker: one task decodes a whole group
// of pictures through Session.Run (and, with one worker, the plan in
// decode order — the sequential baseline).
func (e *StreamExecutor) gopWorker(wi int) {
	defer e.wg.Done()
	obs.Do(e.s.opt.Mode.String(), wi, func() {
		ws := &e.s.st.WorkerStats[wi]
		var scr Scratch
		for {
			t0 := time.Now()
			t, ok := <-e.tasks
			wait := time.Since(t0)
			ws.Wait += wait
			e.s.opt.Obs.Record(obs.KindWait, wi, t0, wait, -1, -1, -1)
			if !ok {
				return
			}
			if e.s.Err() == nil {
				t1 := time.Now()
				e.s.Run(t, wi, &scr) // a failure is latched in the session
				ws.Busy += time.Since(t1)
				ws.Tasks++
			}
			t.unit.retire()
		}
	})
}

// sliceWorker is the fine-grained worker, on the 2-D task queue: the queue
// grows while the scan runs, and each completed picture retires its share
// of the unit that carried its bytes.
func (e *StreamExecutor) sliceWorker(wi int) {
	defer e.wg.Done()
	s, opt := e.s, &e.s.opt
	obs.Do(opt.Mode.String(), wi, func() {
		ws := &s.st.WorkerStats[wi]
		var scr sliceScratch
		s.Abort(s.drive(e.q, wi, ws, *opt, &scr, nil, func(p *picState, ti int, t0 time.Time) {
			if ti < 0 {
				p.unit.retire()
				return
			}
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
		}))
	})
}
