package server_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/faults"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/obs"
	"mpeg2par/internal/server"
)

var streamCache sync.Map

type streamKey struct{ w, h, pics, gop int }

func testStream(t testing.TB, w, h, pics, gop int) []byte {
	t.Helper()
	key := streamKey{w, h, pics, gop}
	if v, ok := streamCache.Load(key); ok {
		return v.([]byte)
	}
	res, err := encoder.EncodeSequence(encoder.Config{
		Width: w, Height: h, Pictures: pics, GOPSize: gop,
		RepeatSequenceHeader: true,
	}, frame.NewSynth(w, h))
	if err != nil {
		t.Fatal(err)
	}
	streamCache.Store(key, res.Data)
	return res.Data
}

type collectSink struct {
	mu     sync.Mutex
	frames []*frame.Frame
}

func (c *collectSink) add(f *frame.Frame) {
	c.mu.Lock()
	c.frames = append(c.frames, f.Clone())
	c.mu.Unlock()
}

// waitGoroutines polls until the goroutine count returns to the
// baseline (pool, monitor, and per-stream state must not outlive the
// server).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running (baseline %d)\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func seqOracle(t *testing.T, data []byte, policy core.Resilience) (*core.Stats, []*frame.Frame) {
	t.Helper()
	var sink collectSink
	st, err := core.Decode(data, core.Options{
		Mode: core.ModeSequential, Workers: 1, Resilience: policy, Sink: sink.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, sink.frames
}

// TestServiceMatchesSequential: a single stream through the service at
// rung 0 is bit-identical to the batch sequential oracle.
func TestServiceMatchesSequential(t *testing.T) {
	data := testStream(t, 96, 64, 12, 4)
	refSt, refFrames := seqOracle(t, data, core.ConcealSlice)

	base := runtime.NumGoroutine()
	srv := server.NewServer(server.Config{Workers: 3, DisableAutoDegrade: true})
	var sink collectSink
	ss, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{
		Resilience: core.ConcealSlice, Sink: sink.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := ss.Stats
	if st.Displayed != refSt.Displayed || st.Pictures != refSt.Pictures {
		t.Fatalf("displayed %d/%d, oracle %d/%d", st.Displayed, st.Pictures, refSt.Displayed, refSt.Pictures)
	}
	if st.Errors != refSt.Errors {
		t.Fatalf("error stats %+v, oracle %+v", st.Errors, refSt.Errors)
	}
	if st.Shed.Any() {
		t.Fatalf("rung 0 shed pictures: %+v", st.Shed)
	}
	if len(sink.frames) != len(refFrames) {
		t.Fatalf("%d frames, oracle %d", len(sink.frames), len(refFrames))
	}
	for i := range refFrames {
		if !sink.frames[i].Equal(refFrames[i]) {
			t.Fatalf("frame %d differs from sequential oracle", i)
		}
	}
	if st.LeakedFrameBytes != 0 {
		t.Fatalf("leaked %d frame bytes", st.LeakedFrameBytes)
	}
	srv.Close()
	waitGoroutines(t, base)
}

// TestShedBitExact: under forced shedding, every non-shed picture must
// remain bit-identical to the sequential oracle — B pictures are the
// only sacrifice at rung 1, B and P at rung 2, and the substitutions
// are accounted in Stats.Shed, never in Stats.Errors.
func TestShedBitExact(t *testing.T) {
	data := testStream(t, 96, 64, 12, 4)
	_, refFrames := seqOracle(t, data, core.ConcealSlice)

	for _, tc := range []struct {
		rung int
		keep func(byte) bool // picture types that must stay bit-exact
	}{
		{1, func(ty byte) bool { return ty == 'I' || ty == 'P' }},
		{2, func(ty byte) bool { return ty == 'I' }},
	} {
		srv := server.NewServer(server.Config{Workers: 3, DisableAutoDegrade: true})
		srv.SetDegradation(tc.rung)
		var sink collectSink
		ss, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{
			Resilience: core.ConcealSlice, Sink: sink.add,
		})
		if err != nil {
			t.Fatalf("rung %d: %v", tc.rung, err)
		}
		st := ss.Stats
		if st.Displayed != st.Pictures || st.Displayed != len(refFrames) {
			t.Fatalf("rung %d: displayed %d of %d (oracle %d) — shed pictures must still display",
				tc.rung, st.Displayed, st.Pictures, len(refFrames))
		}
		if !st.Shed.Any() || st.Shed.BPictures == 0 {
			t.Fatalf("rung %d: no shed accounting: %+v", tc.rung, st.Shed)
		}
		if tc.rung >= 2 && st.Shed.RefPictures == 0 {
			t.Fatalf("rung %d: no reference pictures shed: %+v", tc.rung, st.Shed)
		}
		if st.Errors.DroppedPictures != 0 {
			t.Fatalf("rung %d: shed pictures leaked into error stats: %+v", tc.rung, st.Errors)
		}
		kept, shed := 0, 0
		for i, f := range sink.frames {
			if tc.keep(f.PictureType) {
				if !f.Equal(refFrames[i]) {
					t.Fatalf("rung %d: kept %c frame %d differs from oracle", tc.rung, f.PictureType, i)
				}
				kept++
			} else {
				shed++
			}
		}
		if kept == 0 || shed == 0 {
			t.Fatalf("rung %d: degenerate stream: %d kept, %d shed", tc.rung, kept, shed)
		}
		if shed != st.Shed.Total() {
			t.Fatalf("rung %d: %d sacrificed picture types in output, Shed reports %d", tc.rung, shed, st.Shed.Total())
		}
		srv.Close()
	}
}

// TestDegradedResilienceAccounting pins the Shed/Errors disjointness
// both ways: damage recovered only because the ladder floored the
// policy counts as degradation; the same damage under the stream's own
// resilient policy counts as errors — never both.
func TestDegradedResilienceAccounting(t *testing.T) {
	clean := testStream(t, 96, 64, 12, 4)

	// Probe for damage that FailFast refuses but ConcealPicture absorbs
	// as picture drops — the exact situation the degraded floor exists
	// for. Faults are random placements, so search specs × seeds.
	var damaged []byte
probe:
	for _, spec := range []string{"droppic:1", "burst:count=2,len=24", "bitflip:6"} {
		sp, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 8; seed++ {
			mut, _ := sp.Apply(clean, seed)
			st, err := core.Decode(mut, core.Options{Mode: core.ModeSequential, Workers: 1, Resilience: core.ConcealPicture})
			if err != nil || st.Errors.DroppedPictures == 0 {
				continue
			}
			if _, err := core.Decode(mut, core.Options{Mode: core.ModeSequential, Workers: 1, Resilience: core.FailFast}); err == nil {
				continue
			}
			damaged = mut
			break probe
		}
	}
	if damaged == nil {
		t.Fatal("no fault spec produced FailFast-fatal, ConcealPicture-droppable damage")
	}

	// The stream's own policy (ConcealPicture) absorbs the damage as an
	// error drop.
	srv := server.NewServer(server.Config{Workers: 2, DisableAutoDegrade: true})
	ss, err := srv.Decode(context.Background(), bytes.NewReader(damaged), server.StreamConfig{
		Resilience: core.ConcealPicture,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ss.Stats.Errors.DroppedPictures == 0 {
		t.Fatalf("undegraded conceal-picture run reported no dropped pictures: %+v", ss.Stats.Errors)
	}
	if ss.Stats.Shed.Any() {
		t.Fatalf("undegraded run reported shed pictures: %+v", ss.Stats.Shed)
	}
	wantDropped := ss.Stats.Errors.DroppedPictures
	srv.Close()

	// A FailFast stream fails on the damage at rung 0...
	srv = server.NewServer(server.Config{Workers: 2, DisableAutoDegrade: true})
	ss, err = srv.Decode(context.Background(), bytes.NewReader(damaged), server.StreamConfig{
		Resilience: core.FailFast,
	})
	if err == nil {
		t.Fatal("FailFast stream decoded damaged input cleanly at rung 0")
	}
	if ss.Stats != nil && ss.Stats.LeakedFrameBytes != 0 {
		t.Fatalf("failed stream leaked %d frame bytes", ss.Stats.LeakedFrameBytes)
	}
	srv.Close()

	// ...but survives under the rung-2 resilience floor, with the
	// recovery accounted as degradation, not as an error drop.
	srv = server.NewServer(server.Config{Workers: 2, DisableAutoDegrade: true})
	srv.SetDegradation(2)
	ss, err = srv.Decode(context.Background(), bytes.NewReader(damaged), server.StreamConfig{
		Resilience: core.FailFast,
	})
	if err != nil {
		t.Fatalf("degraded FailFast stream: %v", err)
	}
	st := ss.Stats
	if st.Shed.DegradedPictures != wantDropped {
		t.Fatalf("degraded run recovered %d pictures, want %d (as DegradedPictures): %+v",
			st.Shed.DegradedPictures, wantDropped, st.Shed)
	}
	if st.Errors.DroppedPictures != 0 {
		t.Fatalf("degraded recoveries double-counted as error drops: %+v", st.Errors)
	}
	if st.Displayed != st.Pictures {
		t.Fatalf("degraded run displayed %d of %d", st.Displayed, st.Pictures)
	}
	srv.Close()
}

// blockReader never returns — the hung-source stand-in.
type blockReader struct{ ch chan struct{} }

func (r *blockReader) Read(p []byte) (int, error) { <-r.ch; return 0, errors.New("closed") }

// TestAdmissionQueueAndReject: a full server queues the next arrival
// (FIFO, with its wait reported) and rejects beyond the queue bound —
// and rejects everything at the ladder's top rung.
func TestAdmissionQueueAndReject(t *testing.T) {
	data := testStream(t, 64, 48, 8, 4)
	srv := server.NewServer(server.Config{
		Workers: 1, MaxStreams: 1, QueueDepth: 1, DisableAutoDegrade: true,
	})
	defer srv.Close()

	gate := make(chan struct{})
	opened := make(chan struct{})
	var once sync.Once
	type result struct {
		ss  *server.StreamStats
		err error
	}
	aDone := make(chan result, 1)
	go func() {
		ss, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{
			Sink: func(f *frame.Frame) {
				once.Do(func() { close(opened) })
				<-gate
			},
		})
		aDone <- result{ss, err}
	}()
	<-opened // A admitted and decoding

	bDone := make(chan result, 1)
	go func() {
		ss, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{})
		bDone <- result{ss, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().QueuedAdm != 1 {
		if time.Now().After(deadline) {
			t.Fatal("stream B never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// C: queue full → immediate rejection.
	ss, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{})
	if !errors.Is(err, server.ErrRejected) {
		t.Fatalf("queue-full arrival: err=%v, want ErrRejected", err)
	}
	if ss == nil {
		t.Fatal("rejected stream must still report StreamStats")
	}

	// A drains; B must be admitted and complete, reporting its wait.
	close(gate)
	ra, rb := <-aDone, <-bDone
	if ra.err != nil || rb.err != nil {
		t.Fatalf("a=%v b=%v", ra.err, rb.err)
	}
	if rb.ss.QueueWait <= 0 {
		t.Fatal("queued stream reported zero QueueWait")
	}
	m := srv.Metrics()
	if m.Admitted != 2 || m.Rejected != 1 {
		t.Fatalf("admitted %d rejected %d, want 2/1", m.Admitted, m.Rejected)
	}

	// Top rung: arrivals rejected outright.
	srv.SetDegradation(3)
	if _, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{}); !errors.Is(err, server.ErrRejected) {
		t.Fatalf("top-rung arrival: err=%v, want ErrRejected", err)
	}
}

// TestWatchdogWedgedStream: a stream whose queued work stops moving
// (here: every worker hostage to another stream's blocked sink) is
// failed with ErrWedged instead of holding its resources forever.
func TestWatchdogWedgedStream(t *testing.T) {
	data := testStream(t, 64, 48, 8, 4)
	base := runtime.NumGoroutine()
	srv := server.NewServer(server.Config{
		Workers: 1, DisableAutoDegrade: true,
		Watchdog: 50 * time.Millisecond, Tick: 5 * time.Millisecond,
	})

	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	type result struct {
		ss  *server.StreamStats
		err error
	}
	aDone := make(chan result, 1)
	go func() {
		ss, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{
			Sink: func(f *frame.Frame) {
				once.Do(func() { close(started) })
				<-release
			},
		})
		aDone <- result{ss, err}
	}()
	<-started // A holds the only worker inside its sink

	bDone := make(chan result, 1)
	go func() {
		ss, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{})
		bDone <- result{ss, err}
	}()

	// Both streams are stale: A is stuck in its sink, B is starved
	// behind it. The watchdog must fail both rather than let either hold
	// its queue slot forever.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Wedged < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog fired %d times, want 2", srv.Metrics().Wedged)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	rb := <-bDone
	<-aDone
	if !errors.Is(rb.err, server.ErrWedged) {
		t.Fatalf("starved stream err=%v, want ErrWedged", rb.err)
	}
	if rb.ss.Stats != nil && rb.ss.Stats.LeakedFrameBytes != 0 {
		t.Fatalf("wedged stream leaked %d frame bytes", rb.ss.Stats.LeakedFrameBytes)
	}
	srv.Close()
	waitGoroutines(t, base)
}

// TestPauseLadderAndResume: at the top rung the lowest-priority class
// pauses with bounded backoff, the higher class keeps running, and the
// paused stream still completes — bounded-backoff re-admission, never
// starvation. The ladder events must land on the streams' obs lanes.
func TestPauseLadderAndResume(t *testing.T) {
	data := testStream(t, 64, 48, 48, 4)
	tr := obs.New(0)
	srv := server.NewServer(server.Config{
		Workers: 1, DisableAutoDegrade: true, Obs: tr,
		Tick: 5 * time.Millisecond, PauseBase: 20 * time.Millisecond, PauseMax: 60 * time.Millisecond,
	})
	defer srv.Close()

	slow := func(f *frame.Frame) { time.Sleep(2 * time.Millisecond) }
	type result struct {
		ss  *server.StreamStats
		err error
	}
	run := func(prio int, done chan result) {
		ss, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{
			Priority: prio, Sink: slow, MaxInFlight: 2,
		})
		done <- result{ss, err}
	}
	lo, hi := make(chan result, 1), make(chan result, 1)
	go run(0, lo)
	go run(1, hi)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Streams != 2 {
		if time.Now().After(deadline) {
			t.Fatal("streams never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	srv.SetDegradation(3)

	rlo, rhi := <-lo, <-hi
	if rlo.err != nil || rhi.err != nil {
		t.Fatalf("lo=%v hi=%v", rlo.err, rhi.err)
	}
	if rlo.ss.Stats.Displayed != rlo.ss.Stats.Pictures {
		t.Fatalf("paused stream displayed %d of %d — starved", rlo.ss.Stats.Displayed, rlo.ss.Stats.Pictures)
	}
	if rlo.ss.Paused == 0 {
		t.Fatal("low-priority stream was never paused at rung 3")
	}
	if rhi.ss.Paused != 0 {
		t.Fatalf("high-priority stream was paused %d times", rhi.ss.Paused)
	}
	if p := srv.Metrics().Pauses; p == 0 {
		t.Fatalf("metrics report %d pauses", p)
	}

	loLane := obs.StreamLane(rlo.ss.ID)
	var pauses, resumes, degrades int
	for _, e := range tr.Snapshot().Events {
		if e.Lane != loLane {
			continue
		}
		switch e.Kind {
		case obs.KindPause:
			pauses++
		case obs.KindResume:
			resumes++
		case obs.KindDegrade:
			degrades++
		}
	}
	if pauses == 0 || resumes == 0 || degrades == 0 {
		t.Fatalf("ladder events missing from stream lane: %d pauses, %d resumes, %d degrades", pauses, resumes, degrades)
	}
	srv.SetDegradation(0)
}

// TestAutoDegradeNoStarvationAtTopRung: with the auto ladder held at
// the top rung by sustained two-class overload, the paused low class
// must still make progress — every pause/resume cycle owes it at least
// one completed task before it may be re-paused, and paused streams'
// queued tasks must not count as offered load. The discriminating
// assertion is that the short low-priority stream finishes while the
// long high-priority one is still running: a ladder that re-pauses a
// resumed stream in the same monitor tick gives the low class zero
// service until the overload itself ends.
func TestAutoDegradeNoStarvationAtTopRung(t *testing.T) {
	loData := testStream(t, 48, 32, 32, 4)
	hiData := testStream(t, 48, 32, 256, 4)
	srv := server.NewServer(server.Config{
		Workers: 1,
		Tick:    time.Millisecond, Dwell: 2 * time.Millisecond,
		HighWater: 0.5, LowWater: 0.25,
		PauseBase: 5 * time.Millisecond, PauseMax: 20 * time.Millisecond,
	})
	defer srv.Close()

	type result struct {
		ss  *server.StreamStats
		err error
	}
	var hiDone atomic.Bool
	hiC := make(chan result, 1)
	go func() {
		ss, err := srv.Decode(context.Background(), bytes.NewReader(hiData), server.StreamConfig{
			Priority: 1, MaxInFlight: 2,
			Sink: func(f *frame.Frame) { time.Sleep(2 * time.Millisecond) },
		})
		hiDone.Store(true)
		hiC <- result{ss, err}
	}()
	loC := make(chan result, 1)
	go func() {
		ss, err := srv.Decode(context.Background(), bytes.NewReader(loData), server.StreamConfig{
			Priority: 0, MaxInFlight: 2,
			Sink: func(f *frame.Frame) { time.Sleep(time.Millisecond) },
		})
		loC <- result{ss, err}
	}()

	rlo := <-loC
	hiStillRunning := !hiDone.Load()
	rhi := <-hiC
	if rlo.err != nil || rhi.err != nil {
		t.Fatalf("lo=%v hi=%v", rlo.err, rhi.err)
	}
	if rlo.ss.Paused == 0 {
		t.Fatal("ladder never paused the low-priority stream — overload did not reach the top rung")
	}
	if rlo.ss.Stats.Displayed != rlo.ss.Stats.Pictures {
		t.Fatalf("low stream displayed %d of %d", rlo.ss.Stats.Displayed, rlo.ss.Stats.Pictures)
	}
	if !hiStillRunning {
		t.Fatal("low stream starved: it only finished after the high stream's overload ended")
	}
}

// TestCancelMidDegradation is the overload-teardown acceptance:
// cancellation and deadline expiry while the ladder is active must
// surface the context error and leak neither goroutines nor pooled
// frames.
func TestCancelMidDegradation(t *testing.T) {
	data := testStream(t, 64, 48, 24, 4)
	base := runtime.NumGoroutine()
	srv := server.NewServer(server.Config{Workers: 3, DisableAutoDegrade: true})
	srv.SetDegradation(2)

	const n = 6
	errs := make(chan error, n)
	stats := make(chan *server.StreamStats, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			var ctx context.Context
			var cancel context.CancelFunc
			if i == 0 {
				ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
			} else {
				ctx, cancel = context.WithCancel(context.Background())
			}
			defer cancel()
			shown := 0
			ss, err := srv.Decode(ctx, bytes.NewReader(data), server.StreamConfig{
				Resilience:  core.ConcealSlice,
				MaxInFlight: 1,
				Sink: func(f *frame.Frame) {
					shown++
					if shown == 1 && i != 0 {
						cancel()
					}
					time.Sleep(time.Millisecond)
				},
			})
			stats <- ss
			errs <- err
		}(i)
	}
	cancelled := 0
	for i := 0; i < n; i++ {
		err := <-errs
		ss := <-stats
		if err != nil {
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("stream error %v, want a context error", err)
			}
			cancelled++
		}
		if ss.Stats != nil && ss.Stats.LeakedFrameBytes != 0 {
			t.Fatalf("cancelled stream leaked %d frame bytes", ss.Stats.LeakedFrameBytes)
		}
	}
	if cancelled < n-1 {
		t.Fatalf("only %d of %d streams actually cancelled; injection too late", cancelled, n)
	}
	srv.Close()
	waitGoroutines(t, base)
}

// TestServerCloseTeardown: Close aborts admitted streams promptly and
// cleanly; later arrivals get ErrServerClosed.
func TestServerCloseTeardown(t *testing.T) {
	data := testStream(t, 64, 48, 48, 4)
	base := runtime.NumGoroutine()
	srv := server.NewServer(server.Config{Workers: 2})
	started := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	statc := make(chan *server.StreamStats, 1)
	go func() {
		ss, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{
			Sink: func(f *frame.Frame) {
				once.Do(func() { close(started) })
				time.Sleep(time.Millisecond)
			},
		})
		statc <- ss
		done <- err
	}()
	<-started
	srv.Close()
	err := <-done
	ss := <-statc
	if !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("aborted stream err=%v, want ErrServerClosed", err)
	}
	if ss.Stats != nil && ss.Stats.LeakedFrameBytes != 0 {
		t.Fatalf("leaked %d frame bytes", ss.Stats.LeakedFrameBytes)
	}
	if _, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{}); !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("post-close arrival err=%v, want ErrServerClosed", err)
	}
	waitGoroutines(t, base)
}

// TestLoadSmoke is the service gate: 64 synthetic streams — roughly 4×
// over pool capacity — must all complete without wedging, starving, or
// leaking; per-stream throughput within a priority class must stay
// within 3:1; and the per-stream obs lanes must carry the admission and
// delivery record and export to a valid Chrome trace.
func TestLoadSmoke(t *testing.T) {
	const nStreams, nPictures, workers = 64, 16, 2
	data := testStream(t, 48, 32, nPictures, 4)
	tr := obs.New(0)
	base := runtime.NumGoroutine()
	srv := server.NewServer(server.Config{
		Workers: workers, MaxStreams: nStreams, QueueDepth: nStreams,
		DefaultDemand: 0.01, // admit everyone: overload is the point
		Tick:          5 * time.Millisecond,
		PauseBase:     10 * time.Millisecond,
		Obs:           tr,
	})

	type result struct {
		ss  *server.StreamStats
		err error
	}
	// A real per-frame service cost (with free decodes the pool never
	// saturates and nothing is being scheduled), and a level start: the
	// goroutines call Decode together, and the first deliveries — sinks
	// run on the pool's workers — hold both workers until every stream
	// has a group queued (each stream keeps at most MaxInFlight = 2 groups
	// fed, so a backlog of 2·streams − workers − 1 leaves no stream
	// without one). Without the hold a stream admitted early is done
	// before the last goroutine has been scheduled, and the faster
	// decoding gets, or the busier the host, the more of the run that
	// start-up skew is.
	//
	// Fairness is then asserted on the global delivery sequence, not on
	// wall time (per-stream Displayed/Wall, which this test used to
	// compare 3:1, moves with the host's load): at the delivery that
	// completes the first stream, every stream — they are all of one
	// class — must have delivered at least a third of its pictures.
	var delivered [nStreams]atomic.Int32
	var atFirstFinish [nStreams]int32
	var level, firstDone atomic.Bool
	holdUntilLevel := func() {
		for wait := time.Now().Add(10 * time.Second); !level.Load(); time.Sleep(100 * time.Microsecond) {
			if srv.Metrics().Backlog >= 2*nStreams-workers-1 || time.Now().After(wait) {
				level.Store(true)
			}
		}
	}
	start := make(chan struct{})
	results := make(chan result, nStreams)
	for i := 0; i < nStreams; i++ {
		go func() {
			<-start
			ss, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{
				Resilience: core.ConcealSlice, MaxInFlight: 2,
				Deadline: 250 * time.Millisecond,
				Sink: func(f *frame.Frame) {
					holdUntilLevel()
					time.Sleep(300 * time.Microsecond)
					if delivered[i].Add(1) == nPictures && firstDone.CompareAndSwap(false, true) {
						for j := range delivered {
							atFirstFinish[j] = delivered[j].Load()
						}
					}
				},
			})
			results <- result{ss, err}
		}()
	}
	close(start)
	var all []*server.StreamStats
	for i := 0; i < nStreams; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("stream failed under load: %v", r.err)
		}
		all = append(all, r.ss)
	}
	for _, ss := range all {
		st := ss.Stats
		if st.Displayed != nPictures || st.Displayed != st.Pictures {
			t.Fatalf("stream %d displayed %d of %d (want %d) — did not progress", ss.ID, st.Displayed, st.Pictures, nPictures)
		}
		if st.LeakedFrameBytes != 0 {
			t.Fatalf("stream %d leaked %d frame bytes", ss.ID, st.LeakedFrameBytes)
		}
		if st.Wall <= 0 {
			t.Fatalf("stream %d reported no wall time", ss.ID)
		}
	}
	for j, n := range atFirstFinish {
		if 3*n < nPictures {
			t.Fatalf("fairness: when the first stream had delivered all %d pictures, stream %d had delivered %d (deliveries then: %v)",
				nPictures, j, n, atFirstFinish)
		}
	}
	m := srv.Metrics()
	if m.Admitted != nStreams || m.Wedged != 0 {
		t.Fatalf("metrics: admitted %d wedged %d, want %d/0", m.Admitted, m.Wedged, nStreams)
	}

	// Per-stream lanes: every admitted stream must show its admission
	// and its deliveries.
	tl := tr.Snapshot()
	if tl.Dropped != 0 {
		t.Fatalf("trace dropped %d events", tl.Dropped)
	}
	admits := make(map[int]bool)
	displays := make(map[int]int)
	for _, e := range tl.Events {
		if id, ok := obs.StreamOf(e.Lane); ok {
			switch e.Kind {
			case obs.KindAdmit:
				admits[id] = true
			case obs.KindDisplay:
				displays[id]++
			}
		}
	}
	for _, ss := range all {
		if !admits[ss.ID] {
			t.Fatalf("stream %d has no admission event on its lane", ss.ID)
		}
		if displays[ss.ID] != ss.Stats.Displayed {
			t.Fatalf("stream %d lane shows %d deliveries, stats say %d", ss.ID, displays[ss.ID], ss.Stats.Displayed)
		}
	}
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("service trace invalid: %v", err)
	}
	srv.Close()
	waitGoroutines(t, base)
}

// TestWeightedFairShare: with sustained contention, a priority-1
// stream must receive about twice the service of a priority-0 stream
// (weight = priority+1).
func TestWeightedFairShare(t *testing.T) {
	data := testStream(t, 64, 48, 48, 4)
	srv := server.NewServer(server.Config{Workers: 1, DisableAutoDegrade: true})
	defer srv.Close()
	type result struct {
		ss  *server.StreamStats
		err error
	}
	run := func(prio int, done chan result) {
		ss, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{
			Priority: prio, MaxInFlight: 2,
			Sink: func(f *frame.Frame) { time.Sleep(500 * time.Microsecond) },
		})
		done <- result{ss, err}
	}
	lo, hi := make(chan result, 1), make(chan result, 1)
	go run(0, lo)
	go run(1, hi)
	rlo, rhi := <-lo, <-hi
	if rlo.err != nil || rhi.err != nil {
		t.Fatalf("lo=%v hi=%v", rlo.err, rhi.err)
	}
	// Both complete (equal lengths), but the weighted pick must finish
	// the heavy class's work no slower: the high-priority stream's wall
	// cannot exceed the low-priority one's by more than measurement
	// noise.
	if rhi.ss.Stats.Wall > rlo.ss.Stats.Wall+rlo.ss.Stats.Wall/2 {
		t.Fatalf("priority inversion: hi wall %v vs lo wall %v", rhi.ss.Stats.Wall, rlo.ss.Stats.Wall)
	}
}
