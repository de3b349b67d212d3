package server_test

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/faults"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/server"
)

// flatSource renders every picture as one luma and chroma value.
type flatSource struct {
	w, h int
	v    uint8
}

func (s flatSource) Frame(n int) *frame.Frame {
	f := frame.New(s.w, s.h)
	f.Fill(s.v)
	f.DisplayIndex = n
	return f
}

// concealable returns clean damaged so that the sequential decoder gets
// through it under ConcealSlice only by concealing macroblocks.
func concealable(t *testing.T, clean []byte) []byte {
	t.Helper()
	for _, spec := range []string{"dropslice:3", "burst:count=3,len=12", "bitflip:8"} {
		sp, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 8; seed++ {
			mut, _ := sp.Apply(clean, seed)
			st, err := core.Decode(mut, core.Options{Mode: core.ModeSequential, Workers: 1, Resilience: core.ConcealSlice})
			if err == nil && st.Errors.ConcealedMBs > 0 {
				return mut
			}
		}
	}
	t.Fatal("no fault spec produced damage that ConcealSlice conceals")
	return nil
}

// TestLentFramesIsolateTenants is the lending contract's isolation half: a
// damaged stream decoded under ConcealSlice with shedding forced — the
// decode that ships the most synthesized content — into frames a bright
// stream used just before produces the frames it produces on a server
// nothing else has touched.
func TestLentFramesIsolateTenants(t *testing.T) {
	const w, h = 96, 64
	bright, err := encoder.EncodeSequence(encoder.Config{Width: w, Height: h, Pictures: 12, GOPSize: 4,
		RepeatSequenceHeader: true}, flatSource{w, h, 235})
	if err != nil {
		t.Fatal(err)
	}
	holder := testStream(t, w, h, 12, 12) // one group: one task, one worker
	damaged := concealable(t, testStream(t, w, h, 12, 4))
	cfg := server.StreamConfig{Resilience: core.ConcealSlice}

	for _, rung := range []int{1, 2} {
		fresh := server.NewServer(server.Config{Workers: 3, DisableAutoDegrade: true})
		fresh.SetDegradation(rung)
		var want collectSink
		cfg.Sink = want.add
		ss, err := fresh.Decode(context.Background(), bytes.NewReader(damaged), cfg)
		if err != nil {
			t.Fatalf("rung %d, fresh server: %v", rung, err)
		}
		if !ss.Stats.Shed.Any() {
			t.Fatalf("rung %d: nothing shed: %+v", rung, ss.Stats.Shed)
		}
		fresh.Close()

		// The store keeps no more than is lent, so a third stream holds
		// its frames, parked in the delivery of its last picture, while
		// the bright stream comes and goes.
		srv := server.NewServer(server.Config{Workers: 3, DisableAutoDegrade: true})
		parked, release := make(chan struct{}), make(chan struct{})
		held := make(chan error, 1)
		go func() {
			n := 0
			_, err := srv.Decode(context.Background(), bytes.NewReader(holder), server.StreamConfig{
				Sink: func(*frame.Frame) {
					if n++; n == 12 {
						close(parked)
						<-release
					}
				},
			})
			held <- err
		}()
		<-parked
		cfg.Sink = nil
		if _, err := srv.Decode(context.Background(), bytes.NewReader(bright.Data), cfg); err != nil {
			t.Fatalf("rung %d, bright stream: %v", rung, err)
		}
		left := srv.FrameStats()
		if left.SpareBytes == 0 {
			t.Fatalf("rung %d: the bright stream left no spare frames: %+v", rung, left)
		}
		srv.SetDegradation(rung)
		var got collectSink
		cfg.Sink = got.add
		if _, err := srv.Decode(context.Background(), bytes.NewReader(damaged), cfg); err != nil {
			t.Fatalf("rung %d, after the bright stream: %v", rung, err)
		}
		if now := srv.FrameStats(); now.Reused == left.Reused {
			t.Fatalf("rung %d: the damaged stream drew no spare frame: %+v", rung, now)
		}
		close(release)
		if err := <-held; err != nil {
			t.Fatalf("rung %d, holder: %v", rung, err)
		}
		srv.Close()

		if len(got.frames) != len(want.frames) {
			t.Fatalf("rung %d: %d frames, fresh server %d", rung, len(got.frames), len(want.frames))
		}
		for i, f := range got.frames {
			if !f.Equal(want.frames[i]) || f.PictureType != want.frames[i].PictureType {
				t.Fatalf("rung %d: frame %d (%c) differs from the fresh server's", rung, i, f.PictureType)
			}
		}
	}
}

// TestLendingUnderChurn is the accounting half: two geometries, sixteen
// clients at once with two streams each, half of them cancelled mid-stream. No stream leaks,
// every snapshot of the store — one after each stream's hand-back and a
// sampler's in between — has its spare bytes within its bound, and the
// store is empty once the streams are done, before Close and after.
func TestLendingUnderChurn(t *testing.T) {
	small, big := testStream(t, 64, 48, 24, 4), testStream(t, 176, 120, 24, 4)
	srv := server.NewServer(server.Config{Workers: 3, MaxStreams: 16, DefaultDemand: 0.01, DisableAutoDegrade: true})

	// Spare bytes within the bound at every instant also means no frame
	// larger than the bound is ever among them: when only small streams
	// are live, a big stream's frames are not kept.
	var once sync.Once
	check := func(fs frame.StoreStats) {
		if fs.SpareBytes > fs.Bound() || fs.SpareBytes < 0 || fs.LentBytes < 0 {
			once.Do(func() { t.Errorf("store outside its bound: %+v (bound %d)", fs, fs.Bound()) })
		}
	}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
				check(srv.FrameStats())
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := small
			if i%2 == 1 {
				data = big
			}
			// Twice each, so that the second sixteen start while the first
			// are handing back.
			for round := 0; round < 2; round++ {
				ctx, cancel := context.WithCancel(context.Background())
				shown := 0
				ss, err := srv.Decode(ctx, bytes.NewReader(data), server.StreamConfig{
					Resilience: core.ConcealSlice,
					Sink: func(*frame.Frame) {
						if shown++; shown == 5 && i%4 < 2 {
							cancel()
						}
						time.Sleep(200 * time.Microsecond)
					},
				})
				cancel()
				check(srv.FrameStats())
				if i%4 >= 2 && err != nil {
					t.Errorf("stream %d: %v", i, err)
				}
				if ss.Stats == nil || ss.Stats.LeakedFrameBytes != 0 {
					t.Errorf("stream %d leaked: %+v", i, ss.Stats)
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()

	done := srv.FrameStats()
	if done.SpareBytes != 0 || done.LentBytes != 0 {
		t.Errorf("streams done, store still holds or lends frames: %+v", done)
	}
	if done.Reused == 0 {
		t.Errorf("thirty-two streams and no frame was lent twice: %+v", done)
	}
	srv.Close()
	if closed := srv.FrameStats(); closed.SpareBytes != 0 {
		t.Errorf("store not empty after Close: %+v", closed)
	}
	if m := srv.Metrics(); m.FramesReused != done.Reused || m.FramesFresh != done.Fresh || m.SparePeakBytes != done.PeakBytes {
		t.Errorf("Metrics %+v disagree with the store %+v", m, done)
	}
}

// TestWorkerScratchAcrossGeometries: a pool of one worker, so one decode
// scratch, takes an SD stream, then a 176x120 one, then a SIF one; each
// comes out as the sequential decoder makes it.
func TestWorkerScratchAcrossGeometries(t *testing.T) {
	srv := server.NewServer(server.Config{Workers: 1, DisableAutoDegrade: true})
	defer srv.Close()
	for _, g := range []struct{ w, h int }{{704, 480}, {176, 120}, {352, 240}} {
		data := testStream(t, g.w, g.h, 8, 4)
		_, want := seqOracle(t, data, core.FailFast)
		var got collectSink
		if _, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{Sink: got.add}); err != nil {
			t.Fatalf("%dx%d: %v", g.w, g.h, err)
		}
		if len(got.frames) != len(want) {
			t.Fatalf("%dx%d: %d frames, oracle %d", g.w, g.h, len(got.frames), len(want))
		}
		for i, f := range got.frames {
			if !f.Equal(want[i]) {
				t.Fatalf("%dx%d: frame %d differs from the sequential oracle", g.w, g.h, i)
			}
		}
	}
}

// TestSoakFlat is the service half of a soak: 2000 short streams from four
// clients through one Server, and what the process holds after the last —
// heap after a collection, goroutines — is what it held after the 200th.
func TestSoakFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: 2000 streams")
	}
	data := testStream(t, 64, 48, 8, 4)
	srv := server.NewServer(server.Config{Workers: 2, DisableAutoDegrade: true})
	defer srv.Close()
	run := func(streams int) (heap uint64, goroutines int) {
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < streams/4; i++ {
					ss, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{Resilience: core.ConcealSlice})
					if err != nil || ss.Stats.LeakedFrameBytes != 0 {
						t.Errorf("stream failed or leaked: %v, %+v", err, ss.Stats)
						return
					}
				}
			}()
		}
		wg.Wait()
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, runtime.NumGoroutine()
	}
	heap200, go200 := run(200)
	heap2000, go2000 := run(1800)
	if d := go2000 - go200; d < -2 || d > 2 {
		t.Errorf("goroutines: %d after 200 streams, %d after 2000", go200, go2000)
	}
	if float64(heap2000) > 1.10*float64(heap200) {
		t.Errorf("heap after a collection: %d bytes after 200 streams, %d after 2000 (more than 10%% up)", heap200, heap2000)
	}
	if m := srv.Metrics(); m.Admitted != 2000 || m.SpareBytes != 0 {
		t.Errorf("after the soak: %+v", m)
	}
}
