package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	rtrace "runtime/trace"

	"mpeg2par/internal/frame"
	"mpeg2par/internal/kernels"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/obs"
	"mpeg2par/internal/sched"
	"mpeg2par/internal/vlc"
)

// Session is one stream's decode engine: the sequence header, the plan
// grown from the scanned groups under the session's mode, the frame pool,
// the display process, the first error and the run's Stats, the scan-ahead
// window, and the teardown that reclaims all of it. It owns no workers: a
// Pool runs the tasks it hands back — the service's, shared by every
// stream, or a single-stream decode's own (DecodeUnits). In the GOP-grain
// modes a task is one planned group, which one worker runs through Run and
// idle ones help; in the slice modes every group's pictures join one stream
// queue, a task that every worker helps.
//
// The window holds Options.MaxInFlight groups fed and not yet delivered:
// Reserve takes a place in it for the next FeedShed, and a group gives its
// place back, leaves the plan and stops being charged its bytes at one
// point, when the display process delivers its last picture. So what a
// stream holds is bounded by the window, however its tasks finish.
//
// The session watches its context from NewSession to Finish: a cancel,
// whenever it lands, fails the session — queued tasks become no-ops, the
// display process delivers nothing more, and Finish returns ctx's error.
//
// Concurrency contract: Reserve, FeedShed and Finish are called from a
// single goroutine (the stream's feeder), a Reserve before every FeedShed;
// Reserve blocks while the window is full, and FeedShed never blocks. Run
// may be called concurrently from any number of pool workers, one call per
// task, and SessionTask.Help and Wake by others while it runs — only Run's
// worker displays; SetShed and SetDegraded may be called from any goroutine
// and apply to units planned after the call. Tasks of one session may run
// concurrently and in any order — each task is one group of pictures, and
// the plan's per-GOP reference reset makes groups independent.
type Session struct {
	opt  Options
	lane int // obs lane for this stream's display + service events

	seq     mpeg2.SequenceHeader
	pb      *planBuilder
	pool    *frame.Pool
	disp    *displayProc
	st      *Stats
	started bool

	wallStart time.Time

	window chan struct{} // a place per group fed and not yet delivered
	held   atomic.Int64  // those groups' compressed bytes

	sq        SessionTask // the slice modes' stream queue, as a task
	ctx       context.Context
	stopWatch func() bool // ends the watch on ctx (Finish)

	shed     atomic.Int32 // ShedLevel for subsequently planned units
	degraded atomic.Bool  // resilience floor for subsequently planned units

	errs   firstErr
	workMu sync.Mutex // guards st's tallies while tasks run
}

// Unit is one group of pictures handed from the scan to the session. The
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

// SessionTask is one schedulable unit of a session: decode (or
// substitute) every picture of one planned group, or, in the slice modes,
// of the stream queue. A Pool executes it (Session.Run, SessionTask.Help).
type SessionTask struct {
	s     *Session
	pics  []*picState // the group's planned pictures; what they reference is among them
	g     int         // group index, for error messages and obs coordinates
	off   int         // absolute stream offset, for error messages
	bytes int64       // compressed size, the cost model's estimate input

	displayBase int   // first display index the group occupies
	shed        int   // pictures of this group substituted by shedding
	shedIdx     []int // display indices of the substituted pictures

	q sliceQueue // hands the group's tasks to Run and Help (simple variant)

	open, helped bool // the task takes helpers; one has decoded a unit (Pool, under its lock)

	// policy is the effective resilience the unit was planned under
	// (the stream's requested policy, floored at ConcealPicture while
	// degraded). Run decodes under it so execution-time damage handling
	// matches the plan's promises.
	policy Resilience
}

// Pictures returns how many pictures the task will complete.
func (t *SessionTask) Pictures() int { return len(t.pics) }

// Bytes returns the group's compressed size (the scheduling cost
// estimate).
func (t *SessionTask) Bytes() int64 { return t.bytes }

// DisplayBase returns the first display index the task's pictures
// occupy; the task covers [DisplayBase, DisplayBase+Pictures()).
func (t *SessionTask) DisplayBase() int { return t.displayBase }

// ShedPictures returns how many of the task's pictures were sacrificed
// to load shedding at plan time.
func (t *SessionTask) ShedPictures() int { return t.shed }

// ShedDisplays returns the display indices of the task's shed
// (substituted) pictures — the service's miss accounting excludes them,
// keeping Stats.Shed disjoint from deadline misses. The slice is owned
// by the task; callers must not mutate it.
func (t *SessionTask) ShedDisplays() []int { return t.shedIdx }

// NewSession prepares a session watching ctx, or returns an ErrBadOption.
// opt.Workers is the pool size the plan is cut for. The service's sessions
// run at GOP grain (Mode zero), the paper's continuous-playback
// recommendation: a picture's row-group tasks go to its worker and its
// helpers in task order, with no band steering, packing or slice split.
// opt.Resilience is the stream's requested policy — the degradation ladder
// may raise its effective value per unit via SetDegraded.
func NewSession(ctx context.Context, opt Options) (*Session, error) {
	if err := opt.check(); err != nil {
		return nil, err
	}
	s := &Session{
		opt:    opt,
		lane:   obs.LaneDisplay,
		st:     &Stats{Mode: opt.Mode, Workers: opt.EffectiveWorkers(), Kernels: kernels.Describe()},
		window: make(chan struct{}, opt.EffectiveMaxInFlight()),
		ctx:    ctx,
	}
	s.errs.done = make(chan struct{})
	s.sq.s, s.sq.policy = s, opt.Resilience
	s.sq.q.cond = sync.NewCond(&s.sq.q.mu)
	s.stopWatch = context.AfterFunc(ctx, func() { s.Abort(ctx.Err()) })
	return s, nil
}

// SetLane routes the session's display and shed events to an obs lane
// (a per-stream lane from obs.StreamLane). Call before the first Feed.
func (s *Session) SetLane(lane int) { s.lane = lane }

// SetShed selects the load-shedding level applied to units planned by
// subsequent Feed calls. Already-planned units are unaffected — shed
// decisions are plan-time, so the determinism contract holds per unit.
func (s *Session) SetShed(l ShedLevel) { s.shed.Store(int32(l)) }

// ShedLevel returns the currently applied shedding level.
func (s *Session) ShedLevel() ShedLevel { return ShedLevel(s.shed.Load()) }

// SetDegraded raises (on) or restores (off) the stream's effective
// resilience floor to ConcealPicture for units planned by subsequent
// Feed calls, keeping a damaged stream alive through faults its
// requested policy would have failed on. Recoveries made only because
// of the floor are accounted in Stats.Shed.DegradedPictures, never in
// Stats.Errors.
func (s *Session) SetDegraded(on bool) { s.degraded.Store(on) }

// Abort latches err (if non-nil) as the session's failure: queued tasks
// become no-ops, the stream queue hands out nothing more and Finish tears
// the pipeline down. Safe from any goroutine.
func (s *Session) Abort(err error) {
	if err != nil {
		s.errs.set(err)
		s.sq.q.fail()
	}
}

// Err returns the first latched failure, nil while healthy.
func (s *Session) Err() error { return s.errs.get() }

// Failed returns a channel closed once a failure is latched.
func (s *Session) Failed() <-chan struct{} { return s.errs.done }

// Reserve blocks until the scan-ahead window has a place for one more
// group, which the next FeedShed takes. It returns ctx's error on
// cancellation and the latched failure once there is one, holding no
// place either way.
func (s *Session) Reserve(ctx context.Context) error {
	select {
	case s.window <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.errs.done:
		return s.Err()
	}
}

// Held returns the compressed bytes of the groups fed and not yet
// delivered.
func (s *Session) Held() int64 { return s.held.Load() }

// Displayed returns how many pictures the display process has delivered.
func (s *Session) Displayed() int {
	if s.disp == nil {
		return 0
	}
	return s.disp.count()
}

// NoteScan records in the run's Stats what the scan of its stream reported:
// pictures scanned in scan time d (its rate), the peak of the scan's
// window bytes plus those held, and of pictures scanned less displayed.
func (s *Session) NoteScan(pics int, d time.Duration, peakBytes int64, lead int) {
	s.st.ScanTime, s.st.PeakInFlightBytes, s.st.ScanLeadPeak = d, peakBytes, lead
	if d > 0 {
		s.st.ScanRate = float64(pics) / d.Seconds()
	}
}

// delivered is told, in display order, of each picture the display
// process delivers. The last of the oldest group in flight releases that
// group: it leaves the plan, stops being charged and gives back its place
// in the window.
func (s *Session) delivered(idx int) {
	if bytes, ok := s.pb.pl.retire(idx); ok {
		s.held.Add(-bytes)
		<-s.window
	}
}

// start builds the engine once the first unit has brought the frame
// geometry, which for ModeAuto, projected across the scan-ahead window,
// first resolves the mode and worker count.
func (s *Session) start(u *Unit) {
	opt, st := &s.opt, s.st
	if opt.Mode == ModeAuto {
		c := sched.Choose(projectGeometry(autoGeometry([]GOPRange{u.Range}), opt.EffectiveMaxInFlight()), opt.Workers, opt.Cost)
		opt.Mode, opt.Workers = modeOfHint(c.Mode), c.Workers
		st.Mode, st.Workers = opt.Mode, opt.EffectiveWorkers()
		st.Auto = &AutoDecision{Mode: st.Mode, Workers: st.Workers, Reason: c.Reason + " (projected from first group)"}
	}
	s.started = true
	s.wallStart = time.Now()
	s.seq = u.Seq
	s.pb = newPlanBuilder(&s.seq, *opt)
	s.pool = frame.NewPool(s.seq.Width, s.seq.Height)
	s.pool.SetStore(opt.Frames)
	s.disp = newDisplay(s.pool, opt.Sink, s.delivered, opt.Obs)
	s.disp.lane, s.disp.ctx = s.lane, s.ctx
	q := &s.sq.q // Abort's fail touches none of these
	q.pool, q.improved, q.obs = s.pool, opt.Mode == ModeSliceImproved, opt.Obs
	q.depth, q.workers = opt.Workers+4, opt.Workers
}

// FeedShed plans one scanned group of pictures and returns the task that
// decodes it — nil (with nil error) when the group planned empty (no
// pictures, or dropped whole by the policy) or, in the slice modes, joined
// the stream queue. The group sheds at whichever is higher of the
// session-wide level (SetShed, the ladder's global knob) and floor, which
// the service's slack predictor raises to sacrifice a single already-doomed
// frame's B pictures before the ladder escalates every stream; it plans
// under the session's resilience floor (SetDegraded). The group holds the
// window place Reserve took until its last picture is delivered; one that
// plans empty or fails gives it back at once.
func (s *Session) FeedShed(u Unit, floor ShedLevel) (*SessionTask, error) {
	t, err := s.plan(u, floor)
	if t == nil {
		<-s.window
		return nil, err
	}
	s.held.Add(t.bytes)
	if s.opt.Mode.sliceGrain() {
		s.sq.q.append(t.pics)
		return nil, nil
	}
	t.q = sliceQueue{pics: slices.Clone(t.pics), pool: s.pool, solo: true, closed: true}
	t.q.cond = sync.NewCond(&t.q.mu)
	return t, nil
}

// plan plans one group for FeedShed.
func (s *Session) plan(u Unit, floor ShedLevel) (*SessionTask, error) {
	if err := s.errs.get(); err != nil {
		return nil, err
	}
	if !s.started {
		s.start(&u)
	}
	lvl := ShedLevel(s.shed.Load())
	if floor > lvl {
		lvl = floor
	}
	s.pb.shed = lvl
	s.pb.degraded = s.degraded.Load()
	policy := s.opt.Resilience
	if s.pb.degraded && policy < ConcealPicture {
		policy = ConcealPicture
	}
	preShed := s.pb.pl.shed
	displayBase := s.pb.displayBase
	ps, err := s.pb.addGOP(u.Data, u.G, &u.Range)
	if err != nil {
		s.errs.set(err)
		return nil, err
	}
	shedNow := s.pb.pl.shed.Total() - preShed.Total()
	var shedIdx []int
	if shedNow > 0 {
		now := time.Now()
		for _, p := range ps {
			if p.shedBy != ShedNone {
				shedIdx = append(shedIdx, p.displayIdx)
				if s.opt.Obs != nil {
					s.opt.Obs.Record(obs.KindShed, s.lane, now, 0, u.G, p.displayIdx, int(p.shedBy))
				}
			}
		}
	}
	if s.opt.Profile {
		s.profile(u.G, ps)
	}
	if len(ps) == 0 {
		return nil, nil
	}
	return &SessionTask{
		s:           s,
		pics:        ps,
		g:           u.G,
		off:         u.Base + u.Range.Offset,
		bytes:       int64(u.Range.End - u.Range.Offset),
		displayBase: displayBase,
		shed:        shedNow,
		shedIdx:     shedIdx,
		policy:      policy,
	}, nil
}

// profile readies the run's cost tables for one planned group: in GOP
// mode a GOPCosts entry per group fed, which Run fills, and in every mode a
// SliceProf entry per planned picture whose SliceCosts the picture's tasks
// fill in as they run — one cost per slice of a row-group task and one per
// segment task, in task order, which on a clean stream is slice order.
func (s *Session) profile(g int, ps []*picState) {
	if !s.opt.Mode.sliceGrain() {
		s.workMu.Lock()
		for len(s.st.GOPCosts) <= g {
			s.st.GOPCosts = append(s.st.GOPCosts, TaskCost{})
		}
		s.workMu.Unlock()
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
		s.st.SliceProf = append(s.st.SliceProf, PicProfile{
			Ref: p.isRef, Type: "?IPB"[int(p.hdr.Type)], SliceCosts: costs,
			DisplayIdx: p.displayIdx, RowWindow: picRowWindow(p),
		})
	}
}

// Scratch is one worker's reusable decode state (bit reader, macroblock
// buffer, coverage bitmap) and its time breakdown. The zero value is ready;
// a worker keeps one for its lifetime and lends it to every task it runs,
// of any session and geometry, so the buffers grow when a stream is larger
// than any the worker has seen and not once per task. Nothing a decode
// reads from it survives from the task before.
type Scratch struct {
	s  sliceScratch
	ws WorkerStats
}

// Run executes one task on worker wi with that worker's scratch: decode
// or substitute every picture of the group, releasing reference holds and
// pushing each completed frame to the display process (which drains in
// display order into the sink and releases the group once it has delivered
// the last of its pictures). If the session has already failed, Run
// returns the latched error without decoding — the drain path that keeps
// teardown prompt. A decode error is
// latched and returned. With Options.Profile the task's cost fills the
// group's Stats.GOPCosts entry (its slices' fill Stats.SliceProf, as in
// the slice modes). Workers calling Help
// meanwhile decode some of each picture's tasks; Run returns only once
// none of them holds one.
func (s *Session) Run(t *SessionTask, wi int, scr *Scratch) error {
	var ws WorkerStats // a task's inner waits are not the worker's: its Busy is the whole Run
	if err := s.errs.get(); err != nil {
		t.q.fail()
		s.drive(&t.q, wi, &ws, s.opt, &scr.s, nil, nil) // hands out nothing: waits out the helpers' tasks
		return err
	}
	t1 := time.Now()
	reg := rtrace.StartRegion(context.Background(), "mpeg2par.gopTask")
	defer reg.End()
	opt := s.opt
	opt.Resilience = t.policy
	err := s.drive(&t.q, wi, &ws, opt, &scr.s, nil, func(*picState, int, time.Time) {})
	if err != nil {
		err = fmt.Errorf("core: GOP %d at byte %d: %w", t.g, t.off, err)
		s.errs.set(err)
		s.noteTask(t, wi, t1, false)
		return err
	}
	cost := s.noteTask(t, wi, t1, s.opt.Profile)
	s.opt.Cost.Observe(t.bytes, cost)
	return nil
}

// noteTask records a task's span and merges what it tallied into the run's
// Stats (its GOPCosts entry too, when profiling); it returns the task's
// cost.
func (s *Session) noteTask(t *SessionTask, wi int, t1 time.Time, profile bool) time.Duration {
	cost := time.Since(t1)
	s.opt.Obs.Record(obs.KindTask, wi, t1, cost, t.g, -1, -1)
	s.workMu.Lock()
	s.st.Work.Add(t.q.sum.work)
	s.st.Errors.Add(t.q.sum.es)
	if profile {
		s.st.GOPCosts[t.g] = TaskCost{Cost: cost, Work: t.q.sum.work}
	}
	s.workMu.Unlock()
	return cost
}

// Help lends worker wi, with its scratch, to t while another worker runs
// it — or, for a stream queue, while every worker does: it runs t's tasks
// until leave reports true or none is left to hand out. In a group's task
// it completes no picture, so it never calls a sink. leave is asked before
// every task and whenever a wait for one wakes — a helper polls while a
// peer holds a task and sleeps otherwise — so call Wake whenever leave may
// have turned true. Each task it runs is one obs.KindTask (or KindSegment)
// span on lane wi naming its picture, and counts in the scratch's
// WorkerStats; a stream queue's also calibrates Options.Cost, where a
// group's task does so as a whole (Run). Help returns how many tasks it
// ran, and whether t has none left for it.
func (t *SessionTask) Help(wi int, scr *Scratch, leave func() bool) (units int, ended bool) {
	s, ws := t.s, &scr.ws
	opt := s.opt
	opt.Resilience = t.policy
	s.Abort(s.drive(&t.q, wi, ws, opt, &scr.s, leave, func(p *picState, ti int, t0 time.Time) {
		cost := time.Since(t0)
		units++
		ws.Busy += cost
		ws.Tasks++
		kind := obs.KindTask
		if _, j, _ := p.taskAt(ti); j != nil {
			kind = obs.KindSegment
		}
		opt.Obs.Record(kind, wi, t0, cost, p.gop, p.displayIdx, ti)
		if !t.q.solo && p.fate == fateDecode {
			opt.Cost.Observe(taskBytes(p, ti), cost)
		}
	}))
	return units, !leave()
}

// Wake wakes t's waiting helpers, each to ask its leave again.
func (t *SessionTask) Wake() {
	t.q.mu.Lock()
	t.q.changed()
	t.q.mu.Unlock()
}

// Finish completes the session once every issued task has returned from
// Run and every helper has left the stream queue (a driver joins its
// workers first — Finish does not), and ends its watch on ctx. cause is the
// stream-side verdict: nil on a clean end of stream, the context's error on
// cancellation. Any failure — cause, a latched decode error, or a cancel of
// ctx that landed before Finish, even after the last picture was delivered
// — switches Finish into teardown: the frames in the reorder buffer and
// those of the pictures still in the plan (a group leaves it once its last
// picture has been delivered) are forcibly reclaimed, so a cancelled stream
// holds no picture memory. Stats are returned in both cases;
// LeakedFrameBytes reports pool bytes still unaccounted (always zero — the
// cancellation and teardown tests assert it). Either way the pool's idle
// frames then go back to Options.Frames, once the gauges are read.
func (s *Session) Finish(cause error) (*Stats, error) {
	s.stopWatch()
	s.errs.set(cause)
	s.errs.set(s.ctx.Err())
	st := s.st
	err := s.errs.get()
	if !s.started {
		return st, err
	}
	st.Wall = time.Since(s.wallStart)
	st.Work.Add(s.sq.q.sum.work)
	st.Errors.Add(s.sq.q.sum.es)
	st.Split.Add(s.sq.q.sum.sst)
	st.Errors.Add(s.pb.pl.pre)
	st.Concealed = st.Errors.ConcealedMBs
	st.Shed.Add(s.pb.pl.shed)
	st.Pictures = s.pb.pl.planned
	if err != nil {
		s.disp.abandon()
		for _, p := range s.pb.pl.pics {
			if p.frame != nil {
				s.pool.Reclaim(p.frame)
			}
		}
	} else {
		st.Displayed, err = s.disp.finish()
	}
	st.LeakedFrameBytes = st.poolGauges(s.pool)
	s.pool.HandBack()
	if err == nil && st.Displayed != st.Pictures {
		err = fmt.Errorf("core: displayed %d of %d pictures", st.Displayed, st.Pictures)
	}
	return st, err
}
