package core

import (
	"context"
	"sync"
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

// StreamExecutor is the single-stream decode engine: a Session plus
// workers of its own. The scan Feeds it groups of pictures as they are
// discovered (or, from a finished scan, one after the other), the workers
// decode the plan the session grows from them, and the session's display
// process delivers frames in display order as soon as they are ready — all
// long before the stream has been fully read. GOP-grain and sequential
// workers pull the session's tasks and execute them through Session.Run,
// as the service's pool does; slice workers take the same plan's tasks
// from a slice queue.
//
// Feed, AdjustBuffered, NoteScanned and Finish must be called from a
// single goroutine (the scan process); the workers it starts are internal.
// How the stream is cut into reads never shows in the output: the plan of
// a group depends on the group alone.
type StreamExecutor struct {
	ctx context.Context
	s   *Session

	workers int

	tasks chan *SessionTask // ModeGOP / ModeSequential intake
	q     *sliceQueue       // slice-mode intake

	winBytes  int64 // scanner window bytes (AdjustBuffered)
	peakBytes int64 // most of window and fed groups' bytes at once
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
	// Each queued task holds a place in the session's window, so the
	// channel never blocks a send at this capacity.
	e.tasks = make(chan *SessionTask, cap(e.s.window))
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
// while the session's scan-ahead window is full (backpressure against the
// scan process) and returns early with the context's error on
// cancellation, or with the first worker error once one is latched.
func (e *StreamExecutor) Feed(u Unit) error {
	s := e.s
	feedStart := time.Now()
	if err := s.Reserve(e.ctx); err != nil {
		return err
	}
	s.opt.Obs.Record(obs.KindFeed, obs.LaneScan, feedStart, time.Since(feedStart), u.G, -1, -1)
	if !s.started {
		e.start(&u)
	}
	t, err := s.FeedShed(u, ShedNone)
	if t == nil {
		return err
	}
	e.notePeak()
	if e.q != nil {
		e.q.append(t.pics)
	} else {
		e.tasks <- t
	}
	return nil
}

// AdjustBuffered charges (or releases) scanner window bytes against the
// pipeline's in-flight gauge.
func (e *StreamExecutor) AdjustBuffered(delta int64) {
	e.winBytes += delta
	e.notePeak()
}

// notePeak samples the in-flight gauge: the scanner window and the groups
// fed and not yet delivered.
func (e *StreamExecutor) notePeak() {
	e.peakBytes = max(e.peakBytes, e.winBytes+e.s.held.Load())
}

// NoteScanned samples the scan-lead gauge: how far the scan process has
// run ahead of the display process, in pictures.
func (e *StreamExecutor) NoteScanned(pictures int) {
	displayed := 0
	if e.s.disp != nil {
		displayed = e.s.disp.count()
	}
	e.leadPeak = max(e.leadPeak, pictures-displayed)
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
	st.PeakInFlightBytes = e.peakBytes
	st.ScanLeadPeak = e.leadPeak
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
		}
	})
}

// sliceWorker is the fine-grained worker, on the 2-D task queue, which
// grows while the scan runs.
func (e *StreamExecutor) sliceWorker(wi int) {
	defer e.wg.Done()
	s, opt := e.s, &e.s.opt
	obs.Do(opt.Mode.String(), wi, func() {
		ws := &s.st.WorkerStats[wi]
		var scr sliceScratch
		s.Abort(s.drive(e.q, wi, ws, *opt, &scr, nil, func(p *picState, ti int, t0 time.Time) {
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
