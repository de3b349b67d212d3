package server_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/faults"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/sched"
	"mpeg2par/internal/server"
)

// slowModel returns a calibrated cost model that prices every byte at
// one microsecond — absurdly slow, so every deadline-bearing frame is
// predicted doomed the moment it is fed.
func slowModel() *sched.CostModel {
	m := &sched.CostModel{}
	for i := 0; i < 4; i++ {
		m.Observe(1000, time.Millisecond)
	}
	return m
}

// TestSlackShedDisjointFromMisses is the accounting half of the bugfix
// sweep: with a cost model that predicts every frame doomed and a
// deadline nothing can make, the slack planner sheds B and reference
// pictures at plan time, the surviving anchors are all delivered late —
// and the two ledgers stay disjoint: misses count exactly the
// non-shed survivors, never the shed frames, and none of it leaks into
// the error stats.
func TestSlackShedDisjointFromMisses(t *testing.T) {
	data := testStream(t, 96, 64, 16, 4)
	srv := server.NewServer(server.Config{
		Workers: 1, DisableAutoDegrade: true, Cost: slowModel(),
	})
	defer srv.Close()

	ss, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{
		Resilience: core.ConcealSlice, MaxInFlight: 1,
		Deadline: time.Nanosecond, // nothing delivers in a nanosecond
	})
	if err != nil {
		t.Fatal(err)
	}
	st := ss.Stats
	if st.Errors.Any() {
		t.Fatalf("slack shedding leaked into error stats: %+v", st.Errors)
	}
	shed := st.Shed.Total()
	if ss.SlackShedPictures == 0 || ss.SlackShedPictures != shed {
		t.Fatalf("slack shed %d pictures, total shed %d — ladder is off, they must match and be nonzero",
			ss.SlackShedPictures, shed)
	}
	if st.Displayed != st.Pictures {
		t.Fatalf("displayed %d of %d", st.Displayed, st.Pictures)
	}
	// Every non-shed frame was delivered past the nanosecond deadline;
	// every shed frame is excluded. Exact disjointness:
	if want := st.Pictures - shed; ss.DeadlineMisses != want {
		t.Fatalf("misses %d, want %d (pictures %d − shed %d): shed frames must not count as misses",
			ss.DeadlineMisses, want, st.Pictures, shed)
	}
	m := srv.Metrics()
	if m.SlackSheds != int64(ss.SlackShedPictures) || m.Misses != int64(ss.DeadlineMisses) {
		t.Fatalf("server metrics (sheds %d, misses %d) disagree with stream stats (%d, %d)",
			m.SlackSheds, m.Misses, ss.SlackShedPictures, ss.DeadlineMisses)
	}
}

// TestUndeliveredMissesCountedOnCancel is the undercount half: a
// cancelled deadline stream used to vanish from the miss statistics —
// frames fed but never delivered got no verdict at all. Teardown now
// settles them: any non-shed frame already past its deadline is a miss.
func TestUndeliveredMissesCountedOnCancel(t *testing.T) {
	data := testStream(t, 96, 64, 24, 4)
	base := runtime.NumGoroutine()
	srv := server.NewServer(server.Config{Workers: 1, DisableAutoDegrade: true})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once atomic.Bool
	go func() {
		// Wedge confirmed → wait out several deadlines so the frames fed
		// behind the wedge are unambiguously expired, then cancel.
		<-started
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	ss, err := srv.Decode(ctx, bytes.NewReader(data), server.StreamConfig{
		Resilience: core.ConcealSlice, MaxInFlight: 2,
		Deadline: time.Millisecond,
		Sink: func(f *frame.Frame) {
			if once.CompareAndSwap(false, true) {
				close(started)
			}
			<-ctx.Done() // wedge delivery until the caller cancels
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ss.DeadlineMisses == 0 {
		t.Fatal("cancelled stream reported zero misses: fed-but-undelivered frames past deadline were not settled")
	}
	if ss.Stats != nil && ss.Stats.LeakedFrameBytes != 0 {
		t.Fatalf("leaked %d frame bytes", ss.Stats.LeakedFrameBytes)
	}
	srv.Close()
	waitGoroutines(t, base)
}

// TestEDFBitExactCleanAndFaulted: dispatch order is a scheduling
// decision, never a pixel decision. Streams decoded under EDF with
// deadlines generous enough that no slack action fires must reproduce
// the sequential oracle bit for bit — on clean and on damaged bytes,
// with identical error accounting.
func TestEDFBitExactCleanAndFaulted(t *testing.T) {
	clean := testStream(t, 96, 64, 12, 4)
	sp, err := faults.Parse("burst:count=2,len=24")
	if err != nil {
		t.Fatal(err)
	}
	faulted, _ := sp.Apply(clean, 7)

	for _, tc := range []struct {
		name string
		data []byte
	}{{"clean", clean}, {"faulted", faulted}} {
		t.Run(tc.name, func(t *testing.T) {
			refSt, refFrames := seqOracle(t, tc.data, core.ConcealSlice)
			srv := server.NewServer(server.Config{
				Workers: 2, DisableAutoDegrade: true, Dispatch: server.DispatchEDF,
			})
			defer srv.Close()

			const n = 4
			type result struct {
				ss     *server.StreamStats
				frames []*frame.Frame
				err    error
			}
			results := make(chan result, n)
			for i := 0; i < n; i++ {
				go func() {
					var sink collectSink
					ss, err := srv.Decode(context.Background(), bytes.NewReader(tc.data), server.StreamConfig{
						Resilience: core.ConcealSlice, MaxInFlight: 2,
						Deadline: 10 * time.Second, // generous: EDF order, no slack pressure
						Sink:     sink.add,
					})
					results <- result{ss, sink.frames, err}
				}()
			}
			for i := 0; i < n; i++ {
				r := <-results
				if r.err != nil {
					t.Fatal(r.err)
				}
				if r.ss.Stats.Shed.Any() {
					t.Fatalf("generous deadline shed pictures: %+v", r.ss.Stats.Shed)
				}
				if r.ss.Stats.Errors != refSt.Errors {
					t.Fatalf("errors %+v, oracle %+v", r.ss.Stats.Errors, refSt.Errors)
				}
				if len(r.frames) != len(refFrames) {
					t.Fatalf("%d frames, oracle %d", len(r.frames), len(refFrames))
				}
				for j := range refFrames {
					if !r.frames[j].Equal(refFrames[j]) {
						t.Fatalf("frame %d differs from sequential oracle under EDF", j)
					}
				}
			}
		})
	}
}

// TestEDFNoStarvationAtTopRung extends PR 8's anti-livelock guarantee
// to the EDF order: with the ladder held at the top rung, a stream
// resumed from a pause is owed one completed task even while a
// deadline-bearing stream would win every EDF comparison. Without the
// mustServe tier in pickEDFLocked, the low-priority stream gets zero
// service until the overload ends.
func TestEDFNoStarvationAtTopRung(t *testing.T) {
	loData := testStream(t, 48, 32, 32, 4)
	hiData := testStream(t, 48, 32, 256, 4)
	srv := server.NewServer(server.Config{
		Workers: 1, Dispatch: server.DispatchEDF,
		Tick: time.Millisecond, Dwell: 2 * time.Millisecond,
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
			Deadline: 5 * time.Millisecond, // real deadline: EDF always prefers this stream
			Sink:     func(f *frame.Frame) { time.Sleep(2 * time.Millisecond) },
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
		t.Fatal("low stream starved under EDF: it only finished after the high stream's overload ended")
	}
}
