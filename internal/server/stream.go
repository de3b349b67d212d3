package server

import (
	"context"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/obs"
	scan "mpeg2par/internal/stream"
	"mpeg2par/internal/vldsplit"
)

// StreamConfig is one stream's budgets and preferences.
type StreamConfig struct {
	// Priority orders streams for fair dispatch and degradation: higher
	// values get proportionally more pool service (weight priority+1)
	// and are paused last. Default 0 (best effort).
	Priority int
	// Deadline is the per-frame latency budget, measured from the frame
	// being fed to the pool to its in-order delivery; misses are counted
	// (never enforced by dropping — shedding is the ladder's job) and
	// drive the overload controller. Zero disables.
	Deadline time.Duration
	// MaxInFlight bounds the stream's scan-ahead: how many planned
	// groups may be queued or decoding at once before its scanner
	// blocks. Default 4.
	MaxInFlight int
	// Resilience is the stream's requested error policy (the ladder may
	// temporarily floor it at conceal-picture while degraded).
	Resilience core.Resilience
	// Sink receives the stream's frames in display order (valid only
	// during the call). Nil discards output.
	Sink func(*frame.Frame)
	// PicRate, when positive, paces the stream's scanner to feed about
	// this many pictures per second (a real-time source) and lets
	// admission charge the stream's true predicted cost instead of the
	// flat default. Zero feeds as fast as backpressure allows.
	PicRate float64
	// ChunkSize is the scanner's read granularity (0 = default).
	ChunkSize int
	// Index, when non-nil, is the stream's intra-slice split index
	// (vldsplit). A session splits no slice (core.NewSession), so it is
	// not read at present: helpers share a group's row groups only.
	Index *vldsplit.Index
}

// stream is one admitted stream's server-side state.
type stream struct {
	id     int
	lane   int // obs lane (obs.StreamLane(id))
	prio   int
	weight float64 // prio+1, the fair-dispatch service weight
	demand float64 // admission reservation, in workers
	srv    *Server
	sess   *core.Session

	// Guarded by srv.mu.
	pending     []*task
	inFlight    int
	served      float64 // pictures completed, the fair-dispatch key
	paused      bool
	mustServe   bool // resumed but no task completed yet: exempt from re-pause
	pauseUntil  time.Time
	pauseExp    int // backoff exponent (doubles each pause episode)
	pausedCount int

	tokens  chan struct{} // MaxInFlight gate
	wgTasks sync.WaitGroup

	failOnce sync.Once
	failCh   chan struct{} // closed at first failure (unblocks the gate)

	lastProgress atomic.Int64 // UnixNano of last feed/complete/display/resume

	deadline time.Duration
	dmu      sync.Mutex
	feedAt   map[int]feedMark // display index → feed-time facts
	lats     []time.Duration
	misses   int
	predHist SlackHist // predicted slack at feed (deadline streams)
	actHist  SlackHist // actual slack at delivery (deadline − latency)
	slackShd int       // pictures shed by slack prediction (subset of Stats.Shed)
}

// feedMark is what the miss accounting remembers about one fed frame:
// when it was fed, what slack the predictor expected (when the model
// was calibrated), and whether the frame was shed at plan time — shed
// frames are a degradation decision, never a deadline miss, which is
// what keeps Stats.Shed and the miss counters disjoint.
type feedMark struct {
	at    time.Time
	pred  time.Duration
	known bool
	shed  bool
}

const maxLatencySamples = 1 << 16

// fail latches the stream's first failure: the session aborts (queued
// tasks become drains) and the token gate unblocks. Safe anywhere,
// including under srv.mu.
func (st *stream) fail(err error) {
	st.failOnce.Do(func() {
		st.sess.Abort(err)
		close(st.failCh)
	})
	st.srv.cond.Broadcast()
}

func (st *stream) touch() { st.lastProgress.Store(time.Now().UnixNano()) }

func (st *stream) progress() time.Time { return time.Unix(0, st.lastProgress.Load()) }

// noteFed stamps the feed-time facts of each display slot a task
// covers: fed time, the predictor's slack verdict, and which slots were
// shed at plan time (excluded from miss accounting).
func (st *stream) noteFed(t *core.SessionTask, now time.Time, pred time.Duration, known bool) {
	shed := t.ShedDisplays()
	st.dmu.Lock()
	for i := 0; i < t.Pictures(); i++ {
		idx := t.DisplayBase() + i
		fm := feedMark{at: now, pred: pred, known: known}
		for _, si := range shed {
			if si == idx {
				fm.shed = true
				break
			}
		}
		st.feedAt[idx] = fm
		if st.deadline > 0 && known {
			st.predHist.Add(pred)
		}
	}
	st.dmu.Unlock()
}

// noteDisplayed closes one frame's latency sample on delivery. A late
// shed frame is not a miss: its substitution was the ladder's (or the
// slack predictor's) decision, and double-counting it as a miss would
// let one overload event feed the miss EWMA twice.
func (st *stream) noteDisplayed(idx int) {
	now := time.Now()
	st.touch()
	st.srv.displays.Add(1)
	st.dmu.Lock()
	if fed, ok := st.feedAt[idx]; ok {
		delete(st.feedAt, idx)
		lat := now.Sub(fed.at)
		if len(st.lats) < maxLatencySamples {
			st.lats = append(st.lats, lat)
		}
		if st.deadline > 0 {
			st.actHist.Add(st.deadline - lat)
			if lat > st.deadline && !fed.shed {
				st.misses++
				st.srv.misses.Add(1)
			}
		}
	}
	st.dmu.Unlock()
}

// accountUndelivered settles the frames still marked fed at teardown —
// shed, abandoned on cancel, or stuck behind a wedge — which the
// delivery path never saw. Any non-shed frame already past its deadline
// counts as a miss; frames whose budget had not yet expired don't (the
// stream ended before the verdict was due). This is the other half of
// the undercount fix: a cancelled or wedged stream used to vanish from
// the miss statistics entirely, making overload look healthier the
// harder it failed.
func (st *stream) accountUndelivered() {
	if st.deadline <= 0 {
		return
	}
	now := time.Now()
	st.dmu.Lock()
	for idx, fed := range st.feedAt {
		if !fed.shed && now.Sub(fed.at) > st.deadline {
			st.misses++
			st.srv.misses.Add(1)
		}
		delete(st.feedAt, idx)
	}
	st.dmu.Unlock()
}

// complete is a pool worker's epilogue for one task: progress and
// fairness bookkeeping, the admission estimator's bytes-per-picture
// sample, then the token release that re-opens the stream's gate.
func (st *stream) complete(tk *task, err error) {
	if err != nil {
		st.fail(err)
	}
	s, t := st.srv, tk.t
	s.mu.Lock()
	s.closeLocked(tk)
	st.inFlight--
	s.busy--
	st.mustServe = false // the post-resume service window has been honored
	st.served += float64(t.Pictures())
	s.notePicBytesLocked(t.Bytes(), t.Pictures())
	s.mu.Unlock()
	st.touch()
	<-st.tokens
	st.wgTasks.Done()
}

// StreamStats reports one finished (or torn-down) stream.
type StreamStats struct {
	ID       int
	Priority int
	// Stats is the decode-side accounting: pictures, work, errors, and
	// Shed — the load-shedding/degradation counts, disjoint from Errors.
	// Nil when the stream was rejected before decoding started.
	Stats *core.Stats
	// QueueWait is the time spent in the admission queue.
	QueueWait time.Duration
	// DeadlineMisses counts frames delivered after the deadline, plus
	// fed-but-undelivered frames already past deadline at teardown.
	// Shed frames are excluded — Stats.Shed stays disjoint from misses.
	DeadlineMisses int
	// Latencies holds raw feed→delivery samples (capped at 65536).
	Latencies []time.Duration
	// Paused counts rung-3 pause episodes the stream went through.
	Paused int
	// PredictedSlack histograms the slack predictor's feed-time verdicts
	// (deadline − estimated queue delay − predicted cost), one sample
	// per fed frame while the cost model was calibrated. Empty for
	// best-effort streams.
	PredictedSlack SlackHist
	// ActualSlack histograms the delivered outcome (deadline − observed
	// latency) for every delivered frame of a deadline stream. Compare
	// against PredictedSlack to judge the predictor.
	ActualSlack SlackHist
	// SlackShedPictures counts pictures shed by the per-frame slack
	// predictor (a subset of Stats.Shed, which also counts ladder sheds).
	SlackShedPictures int
}

// LatencyP50 returns the median frame latency (0 with no samples).
func (ss *StreamStats) LatencyP50() time.Duration { return ss.latencyQ(0.50) }

// LatencyP99 returns the 99th-percentile frame latency.
func (ss *StreamStats) LatencyP99() time.Duration { return ss.latencyQ(0.99) }

func (ss *StreamStats) latencyQ(q float64) time.Duration {
	if len(ss.Latencies) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ss.Latencies...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return s[i]
}

// Decode runs one stream through the service: admission, scan, shared-
// pool decode, in-order delivery. It blocks until the stream completes,
// is rejected, fails, or ctx is cancelled; the caller typically runs it
// on the connection's goroutine. StreamStats is non-nil in every case.
//
// Teardown is leak-free by construction: cancellation or failure drains
// the stream's queued tasks through the pool (no decode, just
// bookkeeping), waits for them, and tears the session down reclaiming
// every pooled frame — StreamStats.Stats.LeakedFrameBytes is zero, and
// the tests assert it. One caveat: the scanner reads r synchronously,
// so a reader that blocks forever blocks Decode (use a context-aware
// reader for untrusted sources).
func (s *Server) Decode(ctx context.Context, r io.Reader, cfg StreamConfig) (*StreamStats, error) {
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.mu.Unlock()
	lane := obs.StreamLane(id)
	ss := &StreamStats{ID: id, Priority: cfg.Priority}

	arrival := time.Now()
	demand, err := s.admit(ctx, cfg.PicRate)
	ss.QueueWait = time.Since(arrival)
	if err != nil {
		if err == ErrRejected {
			s.rejected.Add(1)
			s.obs.Record(obs.KindReject, lane, arrival, ss.QueueWait, cfg.Priority, -1, -1)
		}
		return ss, s.streamErr(id, err)
	}
	s.obs.Record(obs.KindAdmit, lane, arrival, ss.QueueWait, cfg.Priority, -1, -1)

	st := &stream{
		id:       id,
		lane:     lane,
		prio:     cfg.Priority,
		weight:   float64(cfg.Priority + 1),
		demand:   demand,
		srv:      s,
		failCh:   make(chan struct{}),
		deadline: cfg.Deadline,
		feedAt:   make(map[int]feedMark),
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 4
	}
	st.tokens = make(chan struct{}, maxInFlight)

	sink := cfg.Sink
	sess, err := core.NewSession(core.Options{
		Workers:    s.cfg.Workers,
		Resilience: cfg.Resilience,
		Obs:        s.obs,
		Cost:       s.cost,
		SplitIndex: cfg.Index,
		Frames:     s.frames,
		Sink: func(f *frame.Frame) {
			st.noteDisplayed(f.DisplayIndex)
			if sink != nil {
				sink(f)
			}
		},
	})
	if err != nil {
		s.releaseSlot(demand)
		return ss, s.streamErr(id, err)
	}
	sess.SetLane(lane)
	st.sess = sess
	st.touch()
	s.register(st)

	// Pacing state: a paced stream's scanner sleeps so feeds track the
	// picture rate; deadlines anchor at feed time either way.
	var interval time.Duration
	var due time.Time
	if cfg.PicRate > 0 {
		interval = time.Duration(float64(time.Second) / cfg.PicRate)
		due = time.Now()
	}

	feed := func(u core.Unit) error {
		// The token/deadline gate: one token per in-flight planned
		// group, surrendered when the group's task completes. Blocking
		// here is the backpressure that bounds the stream's memory and
		// queue share.
		select {
		case st.tokens <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		case <-st.failCh:
			return st.sess.Err()
		}
		if interval > 0 {
			if d := time.Until(due); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					<-st.tokens
					return ctx.Err()
				case <-st.failCh:
					t.Stop()
					<-st.tokens
					return st.sess.Err()
				}
			}
		}
		// Price the unit before planning it: a negative-slack frame sheds
		// at plan time (this frame only — the ladder stays where it is).
		sp := s.planSlack(st, &u)
		if sp.known {
			s.obs.Record(obs.KindSlack, st.lane, time.Now(), 0, u.G, int(sp.pred/time.Microsecond), int(sp.floor))
		}
		ladder := st.sess.ShedLevel()
		t, err := st.sess.FeedShed(u, sp.floor)
		if err != nil {
			<-st.tokens
			return err
		}
		if t == nil {
			<-st.tokens
			return nil
		}
		if sp.floor > ladder && t.ShedPictures() > 0 {
			st.dmu.Lock()
			st.slackShd += t.ShedPictures()
			st.dmu.Unlock()
			s.slackSheds.Add(int64(t.ShedPictures()))
		}
		if interval > 0 {
			due = due.Add(time.Duration(t.Pictures()) * interval)
		}
		now := time.Now()
		st.noteFed(t, now, sp.pred, sp.known)
		st.touch()
		st.wgTasks.Add(1)
		tk := &task{st: st, t: t, enq: now, cost: sp.cost}
		if st.deadline > 0 {
			tk.deadline = now.Add(st.deadline)
		}
		s.enqueue(tk)
		return nil
	}

	// Scanning is always lenient: whether damage fails the stream is the
	// plan's decision under the stream's (possibly degraded) policy, so
	// the ladder can floor resilience mid-stream without re-scanning.
	pics, scanDur, scanErr := scan.ScanUnits(ctx, r, cfg.ChunkSize, true, nil, nil, feed)
	if scanErr != nil {
		st.fail(scanErr)
	}
	st.wgTasks.Wait()
	s.unregister(st)
	st.accountUndelivered()

	stats, derr := sess.Finish(scanErr)
	stats.ScanTime = scanDur
	if scanDur > 0 {
		stats.ScanRate = float64(pics) / scanDur.Seconds()
	}
	st.dmu.Lock()
	ss.Stats = stats
	ss.DeadlineMisses = st.misses
	ss.Latencies = st.lats
	ss.PredictedSlack = st.predHist
	ss.ActualSlack = st.actHist
	ss.SlackShedPictures = st.slackShd
	st.dmu.Unlock()
	s.mu.Lock()
	ss.Paused = st.pausedCount
	s.mu.Unlock()
	return ss, s.streamErr(id, derr)
}
