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
)

// Session is one stream's decode engine: the sequence header, the plan
// grown from the scanned groups, the frame pool, the display process, the
// first error and the run's Stats, and the teardown that reclaims all of
// it. It owns no workers. Two drivers run it: the multi-stream service,
// whose scan goroutine Feeds it and whose *shared* worker pool executes
// the tasks it hands back through Run — the inversion that lets N streams
// multiplex onto one pool — and StreamExecutor, which adds a scan-ahead
// window and workers of its own (its GOP-grain workers call Run too; its
// slice workers run the same plan through a slice queue).
//
// Concurrency contract: FeedShed and Finish are called from a single
// goroutine (the stream's feeder); Run may be called concurrently from
// any number of pool workers, one call per task, and SessionTask.Help and
// Wake by others while it runs — only Run's worker displays; SetShed and
// SetDegraded may be called from any goroutine and apply to units
// planned after the call. Tasks of one session may run concurrently
// and in any order — each task is one group of pictures, and the
// plan's per-GOP reference reset makes groups independent.
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

	shed     atomic.Int32 // ShedLevel for subsequently planned units
	degraded atomic.Bool  // resilience floor for subsequently planned units

	errs   firstErr
	workMu sync.Mutex // guards st's tallies while tasks run
}

// SessionTask is one schedulable unit of a session: decode (or
// substitute) every picture of one planned group. Workers execute it via
// Session.Run.
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

	// policy is the effective resilience the unit was planned under
	// (the stream's requested policy, floored at ConcealPicture while
	// degraded). Run decodes under it so execution-time damage handling
	// matches the plan's promises.
	policy Resilience

	// unit is the StreamExecutor window slot the task holds (nil in the
	// service, whose per-stream token gate plays that part).
	unit *unitState
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

// NewSession prepares a service session. opt.Workers is the shared pool
// size (reported in Stats, and the grain of a picture's tasks);
// opt.Resilience is the stream's requested policy — the degradation ladder
// may raise its effective value per unit via SetDegraded. opt.Mode is
// ignored: a service session always executes at GOP grain (the paper's
// continuous-playback recommendation), and Stats.Mode reports ModeGOP. Its
// pictures are planned as row-group tasks all the same, which each task's
// queue hands to its worker and to idle workers of the pool that help it
// (SessionTask.Help), in task order: there is no band to steer them by and
// no tail for packing to level. Its slices are never split, so
// opt.SplitIndex and opt.SpeculativeSplit have no effect.
func NewSession(opt Options) (*Session, error) {
	if opt.Workers < 1 {
		return nil, fmt.Errorf("core: need at least one worker")
	}
	opt.Mode = ModeGOP
	return newSession(opt), nil
}

func newSession(opt Options) *Session {
	s := &Session{
		opt:  opt,
		lane: obs.LaneDisplay,
		st:   &Stats{Mode: opt.Mode, Workers: opt.EffectiveWorkers(), Kernels: kernels.Describe()},
	}
	s.errs.done = make(chan struct{})
	return s
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
// become no-ops and Finish tears the pipeline down. Safe from any
// goroutine.
func (s *Session) Abort(err error) { s.errs.set(err) }

// Err returns the first latched failure, nil while healthy.
func (s *Session) Err() error { return s.errs.get() }

// start builds the engine once the first unit has brought the frame
// geometry; opt.Mode must be resolved by then.
func (s *Session) start(u *Unit) {
	s.started = true
	s.wallStart = time.Now()
	s.seq = u.Seq
	s.pb = newPlanBuilder(&s.seq, s.opt)
	s.pool = frame.NewPool(s.seq.Width, s.seq.Height)
	s.pool.SetStore(s.opt.Frames)
	s.disp = newDisplay(s.pool, s.opt.Sink, s.opt.Obs)
	s.disp.lane = s.lane
}

// FeedShed plans one scanned group of pictures and returns the task that
// decodes it — nil (with nil error) when the group planned empty (no
// pictures, or dropped whole by the policy). The group sheds at whichever
// is higher of the session-wide level (SetShed, the ladder's global knob)
// and floor, which the service's slack predictor raises to sacrifice a
// single already-doomed frame's B pictures before the ladder escalates
// every stream; it plans under the session's resilience floor
// (SetDegraded). FeedShed never blocks: the driver provides the
// backpressure.
func (s *Session) FeedShed(u Unit, floor ShedLevel) (*SessionTask, error) {
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
	t := &SessionTask{
		s:           s,
		pics:        ps,
		g:           u.G,
		off:         u.Base + u.Range.Offset,
		bytes:       int64(u.Range.End - u.Range.Offset),
		displayBase: displayBase,
		shed:        shedNow,
		shedIdx:     shedIdx,
		policy:      policy,
	}
	t.q = sliceQueue{pics: slices.Clone(ps), pool: s.pool, solo: true, closed: true}
	t.q.cond = sync.NewCond(&t.q.mu)
	return t, nil
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
// buffer, coverage bitmap). The zero value is ready; a worker keeps one
// for its lifetime and lends it to every task it runs, of any session and
// geometry, so the buffers grow when a stream is larger than any the
// worker has seen and not once per task. Nothing a decode reads from it
// survives from the task before.
type Scratch struct{ s sliceScratch }

// Run executes one task on worker wi with that worker's scratch: decode
// or substitute every picture of the group, releasing reference holds and
// pushing each completed frame to the display process (which drains in
// display order into the sink), after which the group leaves the plan. If
// the session has already failed, Run returns the latched error without
// decoding — the drain path that keeps teardown prompt. A decode error is
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
	s.pb.pl.retire(t.pics)
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
// it: it runs t's tasks as Run does until leave reports true or none is
// left to hand out, and completes no picture, so it never calls a sink.
// leave is asked before every task and whenever a wait for one wakes — a
// helper polls while a peer holds a task and sleeps otherwise — so call
// Wake whenever leave may have turned true. Help returns how many tasks it
// ran, each an obs.KindTask span on lane wi naming its picture, and
// whether t has none left for it.
func (t *SessionTask) Help(wi int, scr *Scratch, leave func() bool) (units int, ended bool) {
	opt := t.s.opt
	opt.Resilience = t.policy
	var ws WorkerStats
	t.s.drive(&t.q, wi, &ws, opt, &scr.s, leave, func(p *picState, ti int, t0 time.Time) {
		units++
		opt.Obs.Record(obs.KindTask, wi, t0, time.Since(t0), t.g, p.displayIdx, ti)
	})
	return units, !leave()
}

// Wake wakes t's waiting helpers, each to ask its leave again.
func (t *SessionTask) Wake() {
	t.q.mu.Lock()
	t.q.changed()
	t.q.mu.Unlock()
}

// Finish completes the session once every issued task has returned from
// Run (a driver joins its workers first — Finish does not). cause is the
// stream-side verdict: nil on a clean end of stream, the context's error
// on cancellation. Any failure — cause or a latched decode error —
// switches Finish into teardown: the frames in the reorder buffer and
// those of the pictures still in the plan (a group leaves it once every
// picture of it has been decoded and handed to display) are forcibly
// reclaimed, so a cancelled stream holds no picture memory. Stats are
// returned in both cases; LeakedFrameBytes reports pool bytes still
// unaccounted (always zero — the cancellation and teardown tests assert
// it). Either way the pool's idle frames then go back to Options.Frames,
// once the gauges are read.
func (s *Session) Finish(cause error) (*Stats, error) {
	s.errs.set(cause)
	st := s.st
	err := s.errs.get()
	if !s.started {
		return st, err
	}
	st.Wall = time.Since(s.wallStart)
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
