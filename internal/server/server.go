// Package server multiplexes many concurrent MPEG-2 decode streams onto
// one shared worker pool — the paper's single-film decoder turned into a
// video-server building block. Three mechanisms keep it well-behaved
// under load:
//
//   - Admission control: a stream is admitted only while the pool's
//     estimated utilization (Σ per-stream demand, phrased through the
//     calibrated cost model) stays under capacity; excess arrivals wait
//     in a bounded FIFO queue or are rejected outright.
//
//   - Per-stream budgets: each stream has a scan-ahead token gate
//     (MaxInFlight), an optional frame deadline, and a priority weight
//     that the pool's weighted fair dispatch honors.
//
//   - Graceful degradation: a rung ladder driven by observed backlog and
//     deadline misses sheds B pictures, then P pictures plus a
//     resilience floor, then pauses the lowest-priority class with
//     bounded backoff — and only at the top rung rejects new work. An
//     admitted stream is never starved: pauses expire on their own and
//     a watchdog fails (rather than wedges) a stream that stops moving.
package server

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpeg2par/internal/frame"
	"mpeg2par/internal/obs"
	"mpeg2par/internal/sched"
)

// Service errors. Decode reports them wrapped with the stream id.
var (
	// ErrRejected means admission control turned the stream away: the
	// queue was full, or the overload ladder had reached its top rung.
	ErrRejected = errors.New("server: stream rejected by admission control")
	// ErrWedged means the watchdog found the stream making no progress
	// for the configured window and failed it rather than let it hold
	// tokens and queue slots forever.
	ErrWedged = errors.New("server: stream made no progress (watchdog)")
	// ErrServerClosed means the server was shut down.
	ErrServerClosed = errors.New("server: server closed")
)

// Config tunes a Server. The zero value of every field selects a
// sensible default (see each field); NewServer normalizes a copy.
type Config struct {
	// Workers is the shared pool size. Default: runtime.NumCPU().
	Workers int
	// MaxStreams caps concurrently admitted streams. Default: 8×Workers.
	MaxStreams int
	// QueueDepth bounds the admission wait queue. Default: 2×Workers.
	QueueDepth int
	// TargetUtilization scales pool capacity for admission: admit while
	// Σ demand ≤ Workers × TargetUtilization. Default 1.0.
	TargetUtilization float64
	// DefaultDemand is the worker-fraction charged for a stream whose
	// cost cannot be predicted yet (unpaced, or cost model cold).
	// Default 0.5.
	DefaultDemand float64
	// Watchdog fails a stream with queued or running work that makes no
	// progress for this long. Default 30s; negative disables.
	Watchdog time.Duration
	// Tick is the overload monitor's period. Default 25ms.
	Tick time.Duration
	// HighWater / LowWater are the backlog-per-worker thresholds that
	// escalate / de-escalate the ladder. Defaults 2.0 / 0.5.
	HighWater, LowWater float64
	// MissHigh / MissLow are the deadline-miss-rate (EWMA) thresholds
	// that escalate / de-escalate the ladder. Defaults 0.3 / 0.05.
	MissHigh, MissLow float64
	// Dwell is the minimum time between ladder moves. Default 200ms.
	Dwell time.Duration
	// PauseBase / PauseMax bound the rung-3 pause backoff: a paused
	// stream resumes after PauseBase×2^k, capped at PauseMax. Defaults
	// 100ms / 2s.
	PauseBase, PauseMax time.Duration
	// DisableAutoDegrade freezes the ladder; SetDegradation still moves
	// it manually (deterministic tests).
	DisableAutoDegrade bool
	// Dispatch selects the pool's task ordering: DispatchAuto (EDF while
	// any admitted stream has a frame deadline, weighted fair otherwise),
	// DispatchFair, or DispatchEDF. See edf.go.
	Dispatch DispatchPolicy
	// BestEffortLag is the virtual deadline granted to tasks of streams
	// without one while EDF is active: enqueue time + BestEffortLag.
	// Best-effort work thus runs late but keeps flowing. Default 500ms.
	BestEffortLag time.Duration
	// StarveWindow bounds how long any queued head task can wait under
	// EDF before it runs regardless of band or deadline — the aging
	// guard that keeps the documented no-starvation invariant. Default 2s.
	StarveWindow time.Duration
	// DisableSlackActions freezes the slack predictor's per-frame
	// actions (plan-time shedding and split assist) while leaving the
	// dispatch order alone — the baseline arm of the deadline benchmarks
	// and the deterministic-golden switch.
	DisableSlackActions bool
	// Cost is the shared byte→time cost model admission and scheduling
	// calibrate through; nil allocates a fresh one.
	Cost *sched.CostModel
	// Obs, when non-nil, receives the service's scheduling events:
	// KindTask on worker lanes, admission / shed / ladder events on
	// per-stream lanes (obs.StreamLane).
	Obs *obs.Tracer
}

func (c *Config) normalize() {
	if c.Workers < 1 {
		c.Workers = runtime.NumCPU()
	}
	if c.MaxStreams < 1 {
		c.MaxStreams = 8 * c.Workers
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.TargetUtilization <= 0 {
		c.TargetUtilization = 1.0
	}
	if c.DefaultDemand <= 0 {
		c.DefaultDemand = 0.5
	}
	if c.Watchdog == 0 {
		c.Watchdog = 30 * time.Second
	}
	if c.Tick <= 0 {
		c.Tick = 25 * time.Millisecond
	}
	if c.HighWater <= 0 {
		c.HighWater = 2.0
	}
	if c.LowWater <= 0 {
		c.LowWater = 0.5
	}
	if c.MissHigh <= 0 {
		c.MissHigh = 0.3
	}
	if c.MissLow <= 0 {
		c.MissLow = 0.05
	}
	if c.Dwell <= 0 {
		c.Dwell = 200 * time.Millisecond
	}
	if c.PauseBase <= 0 {
		c.PauseBase = 100 * time.Millisecond
	}
	if c.PauseMax <= 0 {
		c.PauseMax = 2 * time.Second
	}
	if c.BestEffortLag <= 0 {
		c.BestEffortLag = 500 * time.Millisecond
	}
	if c.StarveWindow <= 0 {
		c.StarveWindow = 2 * time.Second
	}
	if c.Cost == nil {
		c.Cost = &sched.CostModel{}
	}
}

// waiter is one admission-queue entry. wakeWaitersLocked reserves
// capacity (demand, stream slot) before closing ch and marks the
// waiter reserved; Close grants without reserving. A waiter that was
// granted but cannot proceed (cancelled concurrently, or woken by
// Close) returns the reservation only if one was actually made.
type waiter struct {
	demand   float64
	ch       chan struct{}
	granted  bool
	reserved bool
}

// Server is the multi-stream decode service. Create with NewServer,
// feed it streams with Decode (one goroutine per stream, typically the
// connection handler), and shut it down with Close.
type Server struct {
	cfg  Config
	cost *sched.CostModel
	obs  *obs.Tracer
	// frames lends frames across sessions: every session's pool draws
	// from it and hands its idle frames back at Finish. Its bound follows
	// the bytes live sessions hold, so it is empty once the last one has
	// finished — Close has nothing to drop.
	frames *frame.Store

	mu      sync.Mutex
	cond    *sync.Cond // wakes pool workers (new task, resume, close)
	closed  bool
	streams map[int]*stream
	nextID  int
	nslots  int     // admitted + granted-not-yet-registered streams
	demand  float64 // Σ admitted demand, in workers
	waiters []*waiter
	backlog int // queued (not yet running) tasks across all streams

	nDeadline   int           // admitted streams with a frame deadline (EDF trigger)
	busy        int           // workers currently running a task
	pendingCost time.Duration // Σ predicted cost of queued tasks (slack input)

	rung     int // degradation ladder position, 0..3
	lastMove time.Time
	missEWMA float64

	avgPicBytes float64 // EWMA of compressed bytes per picture (admission input)

	// Monitor-sampled counters (updated from display/worker paths).
	displays   atomic.Int64
	misses     atomic.Int64
	seenDisp   int64 // monitor's last samples
	seenMiss   int64
	admitted   atomic.Int64
	rejected   atomic.Int64
	pauses     atomic.Int64
	wedged     atomic.Int64
	slackSheds atomic.Int64 // pictures shed by per-frame slack prediction
	assists    atomic.Int64 // tasks granted split fan-out at dispatch
	stopMon    chan struct{}
	wg         sync.WaitGroup
}

// NewServer starts the shared pool and the overload monitor.
func NewServer(cfg Config) *Server {
	cfg.normalize()
	s := &Server{
		cfg:     cfg,
		cost:    cfg.Cost,
		obs:     cfg.Obs,
		frames:  frame.NewStore(),
		streams: make(map[int]*stream),
		stopMon: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.obs.SetMeta("service", cfg.Workers)
	for wi := 0; wi < cfg.Workers; wi++ {
		s.wg.Add(1)
		go s.worker(wi)
	}
	s.wg.Add(1)
	go s.monitor()
	return s
}

// Close rejects new streams, aborts every admitted one, and waits for
// the pool and monitor to exit. In-flight Decode calls return promptly
// with their teardown stats. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for _, st := range s.streams {
		st.fail(ErrServerClosed)
	}
	for _, w := range s.waiters {
		if !w.granted {
			w.granted = true
			close(w.ch)
		}
	}
	s.waiters = nil
	s.mu.Unlock()
	s.cond.Broadcast()
	close(s.stopMon)
	s.wg.Wait()
	return nil
}

// capacity is the admission budget in workers.
func (s *Server) capacity() float64 {
	return float64(s.cfg.Workers) * s.cfg.TargetUtilization
}

// demandFor estimates one stream's steady-state worker-fraction: for a
// paced stream with a *calibrated* cost model, picture rate × predicted
// decode time of an average picture; otherwise the configured flat
// default. The calibration gate matters: Predict returns 0 until the
// model has observations, and one observation is cold-start noise — an
// uncalibrated model must read as "cost unknown, charge the
// conservative default", never as "free", or the first burst of
// arrivals is admitted at near-zero demand and lands straight on the
// degradation ladder. The estimate is clamped to capacity(): a
// stream that wants more than the whole pool can never be satisfied,
// and an unclamped demand would park it in the FIFO admission queue
// forever — blocking every waiter behind it even on an idle pool.
// Clamped, it admits alone on an empty pool and simply runs behind
// real time, which the degradation ladder then handles.
func (s *Server) demandFor(picRate float64) float64 {
	d := s.cfg.DefaultDemand
	if picRate > 0 && s.cost.Calibrated() && s.avgPicBytes > 0 {
		perPic := s.cost.Predict(int64(s.avgPicBytes))
		if p := picRate * perPic.Seconds(); p > 0 {
			d = p
		}
	}
	if cap := s.capacity(); d > cap {
		d = cap
	}
	return d
}

func (s *Server) canAdmitLocked(d float64) bool {
	return s.nslots < s.cfg.MaxStreams && s.demand+d <= s.capacity()
}

// wakeWaitersLocked grants queued admissions FIFO while capacity lasts.
func (s *Server) wakeWaitersLocked() {
	for len(s.waiters) > 0 && s.canAdmitLocked(s.waiters[0].demand) {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.demand += w.demand
		s.nslots++
		w.granted = true
		w.reserved = true
		close(w.ch)
	}
}

// admit runs admission control for one arriving stream: immediate
// admission under capacity, a bounded FIFO wait otherwise, rejection
// when the queue is full or the ladder is at its top rung. It returns
// the reserved demand; the caller must register or release it.
func (s *Server) admit(ctx ctxDone, picRate float64) (float64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrServerClosed
	}
	if s.rung >= rungReject {
		s.mu.Unlock()
		return 0, ErrRejected
	}
	d := s.demandFor(picRate)
	if len(s.waiters) == 0 && s.canAdmitLocked(d) {
		s.demand += d
		s.nslots++
		s.mu.Unlock()
		return d, nil
	}
	if len(s.waiters) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		return 0, ErrRejected
	}
	w := &waiter{demand: d, ch: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()

	select {
	case <-w.ch:
		s.mu.Lock()
		closed, reserved := s.closed, w.reserved
		s.mu.Unlock()
		if closed {
			// Close grants waiters without reserving capacity; return
			// the reservation only if wakeWaitersLocked made one before
			// the shutdown.
			if reserved {
				s.releaseSlot(d)
			}
			return 0, ErrServerClosed
		}
		return d, nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.granted {
			// Granted concurrently with cancellation: return the
			// reservation (if any — Close grants without reserving) and
			// pass it on.
			if w.reserved {
				s.releaseLocked(d)
			}
			s.mu.Unlock()
			return 0, ctx.Err()
		}
		for i, q := range s.waiters {
			if q == w {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		return 0, ctx.Err()
	}
}

// ctxDone is the slice of context.Context admission needs (avoids
// importing context just for the interface).
type ctxDone interface {
	Done() <-chan struct{}
	Err() error
}

// releaseSlot returns one admission reservation (granted but not
// registered, or a finished stream's).
func (s *Server) releaseSlot(d float64) {
	s.mu.Lock()
	s.releaseLocked(d)
	s.mu.Unlock()
}

// releaseLocked returns one reservation and passes the capacity on. The
// sum of the reservations returned need not come back to the float it
// started from, and an arrival whose demand was clamped to the whole
// capacity is admitted only at exactly zero: with the last slot gone the
// books are set to zero, or a residue of one ulp on an empty pool would
// keep that arrival, and everyone queued behind it, waiting for a release
// that nobody is left to make.
func (s *Server) releaseLocked(d float64) {
	s.demand -= d
	s.nslots--
	if s.nslots == 0 {
		s.demand = 0
	}
	s.wakeWaitersLocked()
}

// register installs an admitted stream (its demand already reserved)
// and applies the ladder's current rung to it.
func (s *Server) register(st *stream) {
	s.mu.Lock()
	s.streams[st.id] = st
	if st.deadline > 0 {
		s.nDeadline++
	}
	applyRung(st, s.rung)
	s.mu.Unlock()
	s.admitted.Add(1)
}

// unregister removes a finished stream and recycles its capacity.
func (s *Server) unregister(st *stream) {
	s.mu.Lock()
	delete(s.streams, st.id)
	if st.deadline > 0 {
		s.nDeadline--
	}
	s.backlog -= len(st.pending)
	for _, tk := range st.pending {
		s.pendingCost -= tk.cost
	}
	if s.pendingCost < 0 {
		s.pendingCost = 0
	}
	st.pending = nil
	s.releaseLocked(st.demand)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// notePicBytesLocked feeds the admission estimator's bytes-per-picture
// EWMA from one completed task. Called with s.mu held.
func (s *Server) notePicBytesLocked(bytes int64, pics int) {
	if pics <= 0 {
		return
	}
	per := float64(bytes) / float64(pics)
	if s.avgPicBytes == 0 {
		s.avgPicBytes = per
	} else {
		s.avgPicBytes += 0.2 * (per - s.avgPicBytes)
	}
}

// Metrics is a point-in-time snapshot of the service's gauges.
type Metrics struct {
	Workers   int
	Streams   int   // currently admitted
	QueuedAdm int   // admission waiters
	Backlog   int   // queued decode tasks
	Rung      int   // degradation ladder position
	Admitted  int64 // streams admitted since start
	Rejected  int64 // streams rejected since start
	Pauses    int64 // rung-3 pause episodes
	Wedged    int64 // watchdog failures
	Displayed int64 // pictures delivered across all streams
	// Misses counts frame-deadline misses across all streams: frames
	// delivered late, plus frames fed but never delivered (cancelled or
	// wedged streams) that were already past deadline at teardown. Shed
	// frames never count — shedding is a decision, not a miss.
	Misses     int64
	MissEWMA   float64
	DemandUsed float64 // Σ admitted demand, in workers
	SlackSheds int64   // pictures shed by per-frame slack prediction
	Assists    int64   // tasks granted split fan-out at dispatch
	// Frame lending across streams (frame.Store). A stream's frames come
	// from the spare stock finished streams left or are allocated; once
	// streams of one size follow each other FramesReused should dwarf
	// FramesFresh.
	FramesReused   int64 // frames a session drew from the spare stock
	FramesFresh    int64 // frames allocated because the stock had none that fit
	SpareBytes     int64 // bytes idle in the stock now
	SparePeakBytes int64 // high watermark of SpareBytes
}

// Metrics returns a snapshot.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	m := Metrics{
		Workers:    s.cfg.Workers,
		Streams:    len(s.streams),
		QueuedAdm:  len(s.waiters),
		Backlog:    s.backlog,
		Rung:       s.rung,
		MissEWMA:   s.missEWMA,
		DemandUsed: s.demand,
	}
	s.mu.Unlock()
	m.Admitted = s.admitted.Load()
	m.Rejected = s.rejected.Load()
	m.Pauses = s.pauses.Load()
	m.Wedged = s.wedged.Load()
	m.Displayed = s.displays.Load()
	m.Misses = s.misses.Load()
	m.SlackSheds = s.slackSheds.Load()
	m.Assists = s.assists.Load()
	fs := s.frames.Stats()
	m.FramesReused, m.FramesFresh = fs.Reused, fs.Fresh
	m.SpareBytes, m.SparePeakBytes = fs.SpareBytes, fs.PeakBytes
	return m
}

// Rung returns the ladder's current position (0..3).
func (s *Server) Rung() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rung
}

func (s *Server) streamErr(id int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("stream %d: %w", id, err)
}
