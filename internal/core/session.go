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
)

// Session is one stream's decode state inside a multi-stream service:
// the same scan→plan→decode→display pipeline as StreamExecutor, except
// the session owns no workers. The service's scan goroutine Feeds it
// scanned groups of pictures and receives back coarse-grained tasks;
// the service's *shared* worker pool executes them through Run. That
// inversion — tasks pulled by external workers instead of pushed to
// per-decode goroutines — is what lets N streams multiplex onto one
// pool.
//
// Concurrency contract: Feed and Finish are called from a single
// goroutine (the stream's feeder); Run may be called concurrently from
// any number of pool workers, one call per task; SetShed and
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
	workMu sync.Mutex
}

// SessionTask is one schedulable unit of a session: decode (or
// substitute) every picture of one planned group. The service's pool
// workers execute it via Session.Run.
type SessionTask struct {
	s     *Session
	pics  []*picState // the group's planned pictures; what they reference is among them
	g     int         // group index, for error messages and obs coordinates
	off   int         // absolute stream offset, for error messages
	bytes int64       // compressed size, the cost model's estimate input

	displayBase int   // first display index the group occupies
	shed        int   // pictures of this group substituted by shedding
	shedIdx     []int // display indices of the substituted pictures

	// assist, when > 1, grants the task that many-way intra-picture
	// fan-out: Run expands indexed tall slices through the split-decode
	// chain (verify-or-fallback, so pixels and error fate never change)
	// instead of decoding them on one worker. Set by the service's
	// dispatcher for deadline-tight tasks when idle workers exist.
	assist int

	// policy is the effective resilience the unit was planned under
	// (the stream's requested policy, floored at ConcealPicture while
	// degraded). Run decodes under it so execution-time damage handling
	// matches the plan's promises.
	policy Resilience
}

// GOP returns the task's group index in stream order.
func (t *SessionTask) GOP() int { return t.g }

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

// SetAssist grants the task n-way intra-picture fan-out: while it runs,
// indexed tall slices are decoded as up to n parallel row segments
// through the split-decode verify-or-fallback chain, spending otherwise
// idle workers to pull a deadline-tight frame back under budget. Output
// is unchanged by construction (a failed verify re-decodes
// sequentially). Takes effect only when the session was built with
// Options.SplitIndex or SpeculativeSplit; n < 2 disables. Call before
// handing the task to Run.
func (t *SessionTask) SetAssist(n int) { t.assist = n }

// Assist returns the granted fan-out width (0 or 1 means none).
func (t *SessionTask) Assist() int { return t.assist }

// NewSession prepares a session. opt.Workers is the shared pool size
// (reported in Stats); opt.Resilience is the stream's requested policy
// — the degradation ladder may raise its effective value per unit via
// SetDegraded. opt.Mode is ignored: a service session always executes
// at GOP grain (the paper's continuous-playback recommendation), and
// Stats.Mode reports ModeGOP.
func NewSession(opt Options) (*Session, error) {
	if opt.Workers < 1 {
		return nil, fmt.Errorf("core: need at least one worker")
	}
	opt.Mode = ModeGOP
	return &Session{
		opt:  opt,
		lane: obs.LaneDisplay,
		st:   &Stats{Mode: ModeGOP, Workers: opt.Workers, Kernels: kernels.Describe()},
	}, nil
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

// Displayed returns how many pictures have been delivered so far (the
// service's watchdog samples it as the progress gauge).
func (s *Session) Displayed() int {
	if s.disp == nil {
		return 0
	}
	return s.disp.count()
}

func (s *Session) start(u *Unit) {
	s.started = true
	s.wallStart = time.Now()
	s.seq = u.Seq
	s.pb = newPlanBuilder(&s.seq, s.opt)
	s.pool = frame.NewPool(s.seq.Width, s.seq.Height)
	// Scrub always: shed substitutions ship synthesized content even on
	// clean streams, and recycled buffers must never leak stale pixels.
	s.pool.SetScrub(frame.ScrubOnGet)
	s.pool.SetStore(s.opt.Frames)
	s.disp = newDisplay(s.pool, s.opt.Sink, s.opt.Obs)
	s.disp.lane = s.lane
}

// Feed plans one scanned group of pictures under the session's current
// shed level and resilience floor, and returns the task the shared pool
// should execute — nil (with nil error) when the group planned empty
// (no pictures, or dropped whole by the policy). Feed never blocks; the
// service's per-stream token gate provides the backpressure.
func (s *Session) Feed(u Unit) (*SessionTask, error) {
	return s.FeedShed(u, ShedNone)
}

// FeedShed is Feed with a per-unit shedding floor: the unit is planned
// at whichever is higher of the session-wide level (SetShed, the
// ladder's global knob) and floor. The service's slack predictor uses
// it to sacrifice a single already-doomed frame's B pictures before the
// ladder escalates every stream.
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

// Scratch is one pool worker's reusable decode state (bit reader,
// macroblock buffer, coverage bitmap). The zero value is ready; a worker
// keeps one for its lifetime and lends it to every task it runs, of any
// session and geometry, so the buffers grow when a stream is larger than
// any the worker has seen and not once per task. Nothing a decode reads
// from it survives from the task before.
type Scratch struct{ s sliceScratch }

// Run executes one task on pool worker wi with that worker's scratch:
// decode or substitute every picture of the group, releasing reference
// holds and pushing each completed frame to the display process (which
// drains in display order into the sink), after which the group leaves the
// plan. If the session has already failed, Run returns the latched error
// without decoding — the drain path that keeps teardown prompt. A decode
// error is latched and returned.
func (s *Session) Run(t *SessionTask, wi int, scr *Scratch) error {
	if err := s.errs.get(); err != nil {
		return err
	}
	t1 := time.Now()
	reg := rtrace.StartRegion(context.Background(), "mpeg2par.sessionTask")
	defer reg.End()
	var work decoder.WorkStats
	var es ErrorStats
	var split SplitStats
	opt := s.opt
	opt.Resilience = t.policy
	assist := 0
	if t.assist > 1 && (opt.SplitIndex != nil || opt.SpeculativeSplit) {
		assist = t.assist
	}
	for _, p := range t.pics {
		newPlanFrame(s.pool, p)
		var w decoder.WorkStats
		var pes ErrorStats
		var err error
		if assist > 1 {
			w, pes, err = decodeAssistPic(&s.seq, p, wi, opt, &scr.s, assist, &split)
		} else {
			w, pes, err = decodePlanPic(&s.seq, p, wi, opt, &scr.s)
		}
		work.Add(w)
		es.Add(pes)
		if err != nil {
			err = fmt.Errorf("core: GOP %d at byte %d: %w", t.g, t.off, err)
			s.errs.set(err)
			s.noteTask(t, wi, t1, work, es, split)
			return err
		}
		releaseHolds(s.pool, p)
		s.disp.push(p.frame, p.displayIdx)
	}
	s.pb.pl.retire(t.pics)
	s.noteTask(t, wi, t1, work, es, split)
	s.opt.Cost.Observe(t.bytes, time.Since(t1))
	return nil
}

func (s *Session) noteTask(t *SessionTask, wi int, t1 time.Time, work decoder.WorkStats, es ErrorStats, split SplitStats) {
	cost := time.Since(t1)
	s.opt.Obs.Record(obs.KindTask, wi, t1, cost, t.g, -1, -1)
	s.workMu.Lock()
	s.st.Work.Add(work)
	s.st.Errors.Add(es)
	s.st.Split.Add(split)
	s.workMu.Unlock()
}

// Finish completes the session once every issued task has returned from
// Run (the service drains its pool first — Finish does not join
// workers). cause is the stream-side verdict: nil on a clean end of
// stream, the context's error on cancellation. Any failure — cause or a
// latched decode error — switches Finish into teardown: the frames in the
// reorder buffer and those of the groups still in the plan (a group leaves
// it when its task has run) are forcibly reclaimed, so a cancelled stream
// holds no picture memory. Stats are returned in both
// cases; LeakedFrameBytes reports pool bytes still unaccounted (always
// zero — the teardown tests assert it). Either way the pool's idle frames
// then go back to Options.Frames, once the gauges are read.
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
		st.LeakedFrameBytes = st.poolGauges(s.pool)
		s.pool.HandBack()
		return st, err
	}
	displayed, dispErr := s.disp.finish()
	st.Displayed = displayed
	st.LeakedFrameBytes = st.poolGauges(s.pool)
	s.pool.HandBack()
	if dispErr != nil {
		return st, dispErr
	}
	if displayed != st.Pictures {
		return st, fmt.Errorf("core: displayed %d of %d pictures", displayed, st.Pictures)
	}
	return st, nil
}
