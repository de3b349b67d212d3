package server

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/sched"
)

func TestParseDispatch(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want DispatchPolicy
	}{
		{"", DispatchAuto},
		{"auto", DispatchAuto},
		{"fair", DispatchFair},
		{"edf", DispatchEDF},
	} {
		got, err := ParseDispatch(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseDispatch(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Fatalf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseDispatch("bogus"); err == nil {
		t.Fatal("unknown policy must error")
	}
}

func TestEDFActive(t *testing.T) {
	s := &Server{}
	s.cfg.Dispatch = DispatchFair
	s.nDeadline = 5
	if s.edfActiveLocked() {
		t.Fatal("DispatchFair must never run EDF")
	}
	s.cfg.Dispatch = DispatchEDF
	s.nDeadline = 0
	if !s.edfActiveLocked() {
		t.Fatal("DispatchEDF must always run EDF")
	}
	s.cfg.Dispatch = DispatchAuto
	if s.edfActiveLocked() {
		t.Fatal("auto with no deadline streams must fall back to fair")
	}
	s.nDeadline = 1
	if !s.edfActiveLocked() {
		t.Fatal("auto with a deadline stream must run EDF")
	}
}

func TestClassifySlack(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for _, tc := range []struct {
		name                        string
		deadline, wait, cost, bSave time.Duration
		want                        core.ShedLevel
	}{
		{"comfortable", ms(100), ms(10), ms(20), ms(5), core.ShedNone},
		{"one-worker-just-makes-it", ms(40), ms(10), ms(20), ms(5), core.ShedNone},
		{"doomed-b-saves-it", ms(30), ms(10), ms(30), ms(15), core.ShedB},
		{"doomed-needs-refs", ms(30), ms(10), ms(30), ms(5), core.ShedRef},
		{"doomed-beyond-saving-still-sheds-refs", ms(10), ms(10), ms(50), ms(5), core.ShedRef},
		{"zero-slack-is-not-doomed", ms(30), ms(10), ms(20), ms(5), core.ShedNone},
	} {
		if got := classifySlack(tc.deadline, tc.wait, tc.cost, tc.bSave); got != tc.want {
			t.Errorf("%s: classifySlack = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSlackHist(t *testing.T) {
	var h SlackHist
	if h.String() != "(empty)" {
		t.Fatalf("empty histogram renders %q", h.String())
	}
	h.Add(-200 * time.Millisecond) // < -100
	h.Add(-5 * time.Millisecond)   // [-10, 0)
	h.Add(0)                       // [0, 10)
	h.Add(5 * time.Millisecond)    // [0, 10)
	h.Add(300 * time.Millisecond)  // >= 250
	if got := h.Total(); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
	if got := h.Negative(); got != 2 {
		t.Fatalf("Negative = %d, want 2 (zero slack makes the deadline)", got)
	}
	var o SlackHist
	o.Add(-5 * time.Millisecond)
	h.Merge(&o)
	if h.Total() != 6 || h.Negative() != 3 {
		t.Fatalf("after merge: total %d negative %d, want 6 and 3", h.Total(), h.Negative())
	}
	s := h.String()
	for _, want := range []string{"[-10,0)ms:2", "[0,10)ms:2", ">=250ms:1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

// qstream builds a stream with a queued task per given (enq, deadline)
// pair, for driving pickEDFLocked without a running server.
func qstream(id, prio int, heads ...*task) *stream {
	st := &stream{id: id, prio: prio, weight: float64(prio + 1)}
	for _, tk := range heads {
		tk.st = st
		st.pending = append(st.pending, tk)
	}
	return st
}

// edfServer wires streams into a bare Server the way register would,
// minus the goroutines — pickEDFLocked and takeLocked only touch the
// queue gauges.
func edfServer(streams ...*stream) *Server {
	s := &Server{streams: make(map[int]*stream)}
	s.cfg.Dispatch = DispatchEDF
	s.cfg.StarveWindow = 2 * time.Second
	s.cfg.BestEffortLag = 500 * time.Millisecond
	for _, st := range streams {
		s.streams[st.id] = st
		s.backlog.Add(int64(len(st.pending)))
		for _, tk := range st.pending {
			s.pendingCost += tk.cost
		}
	}
	return s
}

func TestPickEDFOrdering(t *testing.T) {
	now := time.Unix(1000, 0)
	ms := func(n int) time.Time { return now.Add(time.Duration(n) * time.Millisecond) }

	t.Run("priority band beats earlier deadline", func(t *testing.T) {
		s := edfServer(
			qstream(1, 0, &task{enq: now, deadline: ms(10)}),
			qstream(2, 1, &task{enq: now, deadline: ms(100)}),
		)
		if tk := s.pickEDFLocked(now); tk == nil || tk.st.id != 2 {
			t.Fatalf("picked %+v, want stream 2 (higher band)", tk)
		}
	})

	t.Run("earliest deadline within a band", func(t *testing.T) {
		s := edfServer(
			qstream(1, 0, &task{enq: now, deadline: ms(50)}),
			qstream(2, 0, &task{enq: now, deadline: ms(10)}),
		)
		if tk := s.pickEDFLocked(now); tk == nil || tk.st.id != 2 {
			t.Fatalf("picked %+v, want stream 2 (earlier deadline)", tk)
		}
	})

	t.Run("best-effort ages under a virtual deadline", func(t *testing.T) {
		// Best-effort head enqueued 400ms ago: virtual deadline is
		// enq+500ms = now+100ms, earlier than the real 200ms one.
		s := edfServer(
			qstream(1, 0, &task{enq: now.Add(-400 * time.Millisecond)}),
			qstream(2, 0, &task{enq: now, deadline: ms(200)}),
		)
		if tk := s.pickEDFLocked(now); tk == nil || tk.st.id != 1 {
			t.Fatalf("picked %+v, want stream 1 (aged virtual deadline)", tk)
		}
	})

	t.Run("deadline tie breaks to the lowest id", func(t *testing.T) {
		s := edfServer(
			qstream(7, 0, &task{enq: now, deadline: ms(10)}),
			qstream(3, 0, &task{enq: now, deadline: ms(10)}),
		)
		if tk := s.pickEDFLocked(now); tk == nil || tk.st.id != 3 {
			t.Fatalf("picked %+v, want stream 3 (id tiebreak)", tk)
		}
	})

	t.Run("starvation guard overrides bands and deadlines", func(t *testing.T) {
		s := edfServer(
			qstream(1, 1, &task{enq: now, deadline: ms(1)}),
			qstream(2, 0, &task{enq: now.Add(-3 * time.Second)}),
		)
		if tk := s.pickEDFLocked(now); tk == nil || tk.st.id != 2 {
			t.Fatalf("picked %+v, want stream 2 (past StarveWindow)", tk)
		}
	})

	t.Run("mustServe overrides everything", func(t *testing.T) {
		starved := qstream(2, 0, &task{enq: now.Add(-3 * time.Second)})
		resumed := qstream(3, 0, &task{enq: now})
		resumed.mustServe = true
		s := edfServer(
			qstream(1, 1, &task{enq: now, deadline: ms(1)}),
			starved,
			resumed,
		)
		if tk := s.pickEDFLocked(now); tk == nil || tk.st.id != 3 {
			t.Fatalf("picked %+v, want stream 3 (post-resume service owed)", tk)
		}
	})

	t.Run("paused streams are skipped", func(t *testing.T) {
		sess, err := core.NewSession(core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		paused := qstream(1, 1, &task{enq: now, deadline: ms(1)})
		paused.paused = true
		paused.sess = sess
		s := edfServer(
			paused,
			qstream(2, 0, &task{enq: now, deadline: ms(100)}),
		)
		if tk := s.pickEDFLocked(now); tk == nil || tk.st.id != 2 {
			t.Fatalf("picked %+v, want stream 2 (stream 1 paused)", tk)
		}
	})

	t.Run("take settles the queue gauges", func(t *testing.T) {
		s := edfServer(
			qstream(1, 0, &task{enq: now, deadline: ms(10), cost: 5 * time.Millisecond}),
			qstream(2, 0, &task{enq: now, deadline: ms(50), cost: 7 * time.Millisecond}),
		)
		if s.backlog.Load() != 2 || s.pendingCost != 12*time.Millisecond {
			t.Fatalf("setup: backlog %d pendingCost %v", s.backlog.Load(), s.pendingCost)
		}
		tk := s.pickEDFLocked(now)
		if tk == nil || tk.st.id != 1 {
			t.Fatalf("picked %+v, want stream 1", tk)
		}
		if s.backlog.Load() != 1 || s.pendingCost != 7*time.Millisecond {
			t.Fatalf("after take: backlog %d pendingCost %v", s.backlog.Load(), s.pendingCost)
		}
		if len(tk.st.pending) != 0 {
			t.Fatal("task not popped from its stream queue")
		}
	})

	t.Run("empty queues pick nothing", func(t *testing.T) {
		s := edfServer(qstream(1, 0))
		if tk := s.pickEDFLocked(now); tk != nil {
			t.Fatalf("picked %+v from empty queues", tk)
		}
	})
}

// TestQueueDelayEffectiveWorkers pins the slack predictor's divisor to
// the pool's effective parallelism: workers beyond GOMAXPROCS
// time-slice one another, so the wait estimate must divide by the
// smaller of the two or it understates the queue by the
// oversubscription factor.
func TestQueueDelayEffectiveWorkers(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	s := &Server{pendingCost: 80 * time.Millisecond}
	s.cfg.Workers = 4 * p
	if got, want := s.queueDelayLocked(), 80*time.Millisecond/time.Duration(p); got != want {
		t.Fatalf("oversubscribed pool: delay %v, want %v (divide by GOMAXPROCS=%d, not workers=%d)",
			got, want, p, s.cfg.Workers)
	}
	s.cfg.Workers = 1
	if got := s.queueDelayLocked(); got != 80*time.Millisecond {
		t.Fatalf("one worker: delay %v, want 80ms", got)
	}
}

// TestAccountUndeliveredCountsOnlyExpiredNonShed drives the teardown
// accounting directly: of the frames still marked fed when a stream
// tears down, only non-shed frames already past their deadline are
// misses — shed frames were a degradation decision (disjoint counters),
// and frames whose budget hadn't expired got no verdict.
func TestAccountUndeliveredCountsOnlyExpiredNonShed(t *testing.T) {
	srv := &Server{}
	now := time.Now()
	st := &stream{
		srv:      srv,
		deadline: 50 * time.Millisecond,
		feedAt: map[int]feedMark{
			0: {at: now.Add(-time.Second)},             // expired, not shed: miss
			1: {at: now},                               // budget not yet expired: no verdict
			2: {at: now.Add(-time.Second), shed: true}, // expired but shed: not a miss
		},
	}
	st.accountUndelivered()
	if st.misses != 1 || srv.misses.Load() != 1 {
		t.Fatalf("misses %d (server %d), want exactly 1", st.misses, srv.misses.Load())
	}
	if len(st.feedAt) != 0 {
		t.Fatalf("%d frames still marked fed after teardown", len(st.feedAt))
	}

	// Best-effort streams have no deadline and no misses, ever.
	be := &stream{srv: srv, feedAt: map[int]feedMark{0: {at: now.Add(-time.Hour)}}}
	be.accountUndelivered()
	if be.misses != 0 || srv.misses.Load() != 1 {
		t.Fatalf("best-effort teardown changed miss counters: %d / %d", be.misses, srv.misses.Load())
	}
}

// TestDemandForUncalibratedIsConservative pins the admission half of
// the cold-start fix: until the cost model passes its calibration
// floor, a paced stream is charged the flat default demand — unknown
// cost must never read as free.
func TestDemandForUncalibratedIsConservative(t *testing.T) {
	model := &sched.CostModel{}
	model.Observe(1000, time.Millisecond) // one sample: below the floor
	s := &Server{cost: model}
	s.cfg.Workers = 4
	s.cfg.TargetUtilization = 0.75
	s.cfg.DefaultDemand = 0.25
	s.avgPicBytes = 1000

	if d := s.demandFor(30); d != 0.25 {
		t.Fatalf("uncalibrated demand %v, want the 0.25 default", d)
	}
	for i := 0; i < 3; i++ {
		model.Observe(1000, time.Millisecond)
	}
	// Calibrated: 30 pics/s x ~1ms/pic = 0.03 workers.
	d := s.demandFor(30)
	if d < 0.02 || d > 0.05 {
		t.Fatalf("calibrated demand %v, want ~0.03 from the model", d)
	}
	// And the estimate is clamped to pool capacity.
	if d := s.demandFor(1e9); d != s.capacity() {
		t.Fatalf("runaway demand %v, want capacity clamp %v", d, s.capacity())
	}
}

// TestLadderLeavesRejectRungWhenEmpty: the miss-rate EWMA is refreshed by
// displays, and at the reject rung an emptied server has none — a rate left
// above MissLow by the overload that raised the ladder must still decay, or
// the server rejects every arrival for good (a disturbed host did that to
// svc-paced once: 769 of 818 streams rejected).
func TestLadderLeavesRejectRungWhenEmpty(t *testing.T) {
	s := NewServer(Config{Workers: 1, Tick: time.Hour, Watchdog: -1})
	defer s.Close()
	now := time.Now()
	s.mu.Lock()
	s.setRungLocked(rungReject, now)
	s.missEWMA = 0.5
	s.mu.Unlock()
	for i := 0; i < 40 && s.Rung() > rungNormal; i++ {
		now = now.Add(s.cfg.Dwell)
		s.tick(now)
	}
	if r := s.Rung(); r != rungNormal {
		t.Fatalf("empty server still at rung %d, miss EWMA %.3f", r, s.Metrics().MissEWMA)
	}
	if _, err := s.admit(context.Background(), 0); err != nil {
		t.Fatalf("arrival after the ladder came down: %v", err)
	}
}

// TestEmptyPoolAdmitsClampedDemand: three reservations taken and returned in
// another order leave 2.8e-16 workers on the books in float64, and a stream
// whose demand is clamped to the whole capacity fits only at zero — on an
// empty pool it must be admitted, not queued for a release nobody is left
// to make (svc-paced hung that way once, thirteen arrivals deep).
func TestEmptyPoolAdmitsClampedDemand(t *testing.T) {
	s := NewServer(Config{Workers: 2, DefaultDemand: 2, DisableAutoDegrade: true, Watchdog: -1})
	defer s.Close()
	s.mu.Lock()
	for _, d := range []float64{0.686, 0.448, 0.828} {
		s.demand += d
		s.nslots++
	}
	s.mu.Unlock()
	for _, d := range []float64{0.686, 0.828, 0.448} {
		s.releaseSlot(d)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	d, err := s.admit(ctx, 0)
	if err != nil {
		t.Fatalf("a stream asking for the whole of an empty pool: %v", err)
	}
	s.releaseSlot(d)
	if m := s.Metrics(); m.DemandUsed != 0 || m.QueuedAdm != 0 {
		t.Fatalf("books after the last release: %+v", m)
	}
}
