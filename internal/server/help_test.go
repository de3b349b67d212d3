package server_test

import (
	"context"
	"errors"
	"fmt"
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
	scan "mpeg2par/internal/stream"
	"mpeg2par/internal/vldsplit"
)

// helpFree decodes data the way a 2-worker server's session does, every
// task run on this goroutine with nobody helping: the same plan, so the
// same counts, that a helped decode must deliver.
func helpFree(t *testing.T, data []byte, policy core.Resilience, ix *vldsplit.Index) (*core.Stats, []*frame.Frame, error) {
	t.Helper()
	var sink collectSink
	sess, err := core.NewSession(context.Background(), core.Options{Workers: 2, Resilience: policy, SplitIndex: ix, Sink: sink.add})
	if err != nil {
		t.Fatal(err)
	}
	var scr core.Scratch
	err = scan.ScanUnits(context.Background(), scan.Source{Data: data}, 0, true, sess, func(u core.Unit) error {
		if err := sess.Reserve(context.Background()); err != nil {
			return err
		}
		tk, err := sess.FeedShed(u, core.ShedNone)
		if err != nil || tk == nil {
			return err
		}
		return sess.Run(tk, 0, &scr)
	})
	st, ferr := sess.Finish(err)
	if err == nil {
		err = ferr
	}
	return st, sink.frames, err
}

// helping returns a tracer and a channel closed once a worker has helped a
// running group through one of its pictures: a helper's span, unlike the
// owner's, names the picture.
func helping() (*obs.Tracer, <-chan struct{}) {
	tr := obs.New(0)
	ch := make(chan struct{})
	var once sync.Once
	tr.SetSink(func(e obs.Event) {
		if e.Kind == obs.KindTask && e.Lane >= 0 && e.Pic >= 0 {
			once.Do(func() { close(ch) })
		}
	})
	return tr, ch
}

// TestHelpMatchesHelpFree: a lone stream on a 2-worker server, whose every
// group takes the idle worker as a helper, delivers what a help-free decode
// of the same plan delivers — frames, Work, Errors, Split, Shed and
// Displayed, or the same FailFast error and Work — on clean and faulted
// bytes, under every policy, with the help-free session given a split
// index or not (a session splits nothing, so the index changes nothing);
// the frames are the sequential oracle's wherever the decode succeeds.
func TestHelpMatchesHelpFree(t *testing.T) {
	plain := testStream(t, 352, 240, 13, 13)
	tallRes, err := encoder.EncodeSequence(encoder.Config{
		Width: 352, Height: 240, Pictures: 13, GOPSize: 13, RepeatSequenceHeader: true, RowsPerSlice: 3,
	}, frame.NewSynth(352, 240))
	if err != nil {
		t.Fatal(err)
	}
	tall := tallRes.Data
	m, err := core.Scan(tall)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndexScanned(tall, m)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := faults.Parse("burst:count=2,len=24")
	if err != nil {
		t.Fatal(err)
	}
	var assists int64
	damaged := 0
	for _, in := range []struct {
		name string
		data []byte
		ix   *vldsplit.Index
	}{{"plain", plain, nil}, {"indexed", tall, ix}} {
		faulted, _ := sp.Apply(in.data, 5)
		for _, bytes_ := range []struct {
			name string
			data []byte
		}{{"clean", in.data}, {"faulted", faulted}} {
			for _, policy := range []core.Resilience{core.FailFast, core.ConcealSlice, core.ConcealPicture} {
				name := fmt.Sprintf("%s/%s/%v", in.name, bytes_.name, policy)
				refSt, refFrames, refErr := helpFree(t, bytes_.data, policy, in.ix)
				if refErr != nil || refSt.Errors.Any() {
					damaged++
				}
				srv := server.NewServer(server.Config{Workers: 2, DisableAutoDegrade: true})
				var sink collectSink
				ss, err := srv.Decode(context.Background(), scan.Source{Data: bytes_.data}, server.StreamConfig{
					Resilience: policy, MaxInFlight: 1, Sink: sink.add,
				})
				srv.Close() // the helpers are back: Assists is final
				assists += srv.Metrics().Assists
				if refErr != nil {
					if want := fmt.Sprintf("stream %d: %v", ss.ID, refErr); err == nil || err.Error() != want {
						t.Fatalf("%s: err %v, help-free %q", name, err, want)
					}
					if ss.Stats.Work != refSt.Work {
						t.Fatalf("%s: failed helped decode counted %+v, help-free %+v", name, ss.Stats.Work, refSt.Work)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v (help-free decode succeeded)", name, err)
				}
				st := ss.Stats
				if st.Work != refSt.Work || st.Errors != refSt.Errors || st.Split != refSt.Split ||
					st.Shed != refSt.Shed || st.Displayed != refSt.Displayed {
					t.Fatalf("%s: helped %+v / %+v / %+v / %+v / %d shown, help-free %+v / %+v / %+v / %+v / %d", name,
						st.Work, st.Errors, st.Split, st.Shed, st.Displayed,
						refSt.Work, refSt.Errors, refSt.Split, refSt.Shed, refSt.Displayed)
				}
				if st.Split != (core.SplitStats{}) {
					t.Fatalf("%s: a service session split a slice: %+v", name, st.Split)
				}
				_, oracle := seqOracle(t, bytes_.data, policy)
				if len(sink.frames) != len(refFrames) || len(refFrames) != len(oracle) {
					t.Fatalf("%s: %d frames, help-free %d, oracle %d", name, len(sink.frames), len(refFrames), len(oracle))
				}
				for i := range oracle {
					if !sink.frames[i].Equal(refFrames[i]) || !refFrames[i].Equal(oracle[i]) {
						t.Fatalf("%s: frame %d differs", name, i)
					}
				}
				if st.LeakedFrameBytes != 0 {
					t.Fatalf("%s: %d frame bytes leaked", name, st.LeakedFrameBytes)
				}
			}
		}
	}
	if damaged < 6 {
		t.Fatalf("faults damaged %d of the 6 faulted decodes; raise the burst size", damaged)
	}
	if assists == 0 {
		t.Fatal("no idle worker helped a lone stream's group in any decode")
	}
}

// TestHelperReturnsToDispatch: a worker helping a running group goes back
// to dispatch once a task is queued, so the queued stream is served while
// the helped group still runs, not after it. The group is a lone stream's,
// so it took the idle worker as a helper when it started; its owner then
// sits in the frame consumer until the queued stream has shown a frame, so
// the helper, waiting for the owner's next picture, is the only worker that
// can serve it — and only if the queueing itself ends its wait.
func TestHelperReturnsToDispatch(t *testing.T) {
	long := testStream(t, 352, 240, 13, 13) // one group
	short := testStream(t, 96, 64, 4, 4)
	srv := server.NewServer(server.Config{Workers: 2, DisableAutoDegrade: true})
	defer srv.Close()

	held, release := make(chan struct{}), make(chan struct{})
	var timedOut atomic.Bool
	longErr := make(chan error, 1)
	go func() {
		shown := 0
		_, err := srv.Decode(context.Background(), scan.Source{Data: long}, server.StreamConfig{
			MaxInFlight: 1,
			Sink: func(*frame.Frame) {
				if shown++; shown == 2 {
					close(held)
					select {
					case <-release:
					case <-time.After(10 * time.Second):
						timedOut.Store(true)
					}
				}
			},
		})
		longErr <- err
	}()
	<-held
	time.Sleep(20 * time.Millisecond) // past the helper's short poll: it blocks
	if _, err := srv.Decode(context.Background(), scan.Source{Data: short}, server.StreamConfig{
		Sink: func(f *frame.Frame) {
			if f.DisplayIndex == 0 {
				close(release)
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-longErr; err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatal("the queued stream was served only after the helped group's owner left its sink: its helper did not return to dispatch")
	}
}

// TestHelperDecodesWhileOwnerDisplays: a helper takes a picture's units
// as soon as the picture before it completes, not once the group's owner
// is back from displaying it. A lone stream's group takes the idle worker
// as a helper; the sink holds display index 1 — a B picture, shown as the
// owner hands it over, with B picture 2 next in decode order — until a
// helper's span names picture 2.
func TestHelperDecodesWhileOwnerDisplays(t *testing.T) {
	data := testStream(t, 352, 240, 13, 13) // I0 P3 B1 B2 ... in decode order
	tr := obs.New(0)
	next := make(chan struct{})
	var once sync.Once
	tr.SetSink(func(e obs.Event) {
		if e.Kind == obs.KindTask && e.Lane >= 0 && e.Pic == 2 {
			once.Do(func() { close(next) })
		}
	})
	srv := server.NewServer(server.Config{Workers: 2, DisableAutoDegrade: true, Obs: tr})
	defer srv.Close()
	var timedOut atomic.Bool
	_, err := srv.Decode(context.Background(), scan.Source{Data: data}, server.StreamConfig{
		MaxInFlight: 1,
		Sink: func(f *frame.Frame) {
			if f.DisplayIndex != 1 {
				return
			}
			select {
			case <-next:
			case <-time.After(10 * time.Second):
				timedOut.Store(true)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatal("no helper decoded picture 2 while the owner displayed picture 1")
	}
}

// TestCancelMidHelp: a stream cancelled while an idle worker helps its
// group tears down like any other — the context's error, no frame bytes
// and no goroutines left behind. The sink holds the first frame until a
// helper has decoded part of the group: with one group in flight the
// owner waits there while the group's next picture is runnable, so the
// helper's unit comes before the cancel under any schedule. It holds the
// last frame until the cancel lands, so a loaded host cannot finish the
// stream first.
func TestCancelMidHelp(t *testing.T) {
	const pics = 65
	data := testStream(t, 352, 240, pics, 13)
	base := runtime.NumGoroutine()
	tr, helped := helping()
	srv := server.NewServer(server.Config{Workers: 2, DisableAutoDegrade: true, Obs: tr})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var unhelped atomic.Bool
	go func() {
		select {
		case <-helped:
		case <-time.After(10 * time.Second):
			unhelped.Store(true)
		}
		cancel()
	}()
	var shown atomic.Int32
	ss, err := srv.Decode(ctx, scan.Source{Data: data}, server.StreamConfig{
		Resilience: core.ConcealSlice, MaxInFlight: 1,
		Sink: func(*frame.Frame) {
			switch shown.Add(1) {
			case 1:
				select {
				case <-helped:
				case <-ctx.Done():
				}
			case pics:
				<-ctx.Done()
			}
		},
	})
	if unhelped.Load() {
		t.Fatal("no idle worker helped the first group within 10 s while its owner held the first frame")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ss.Stats == nil || ss.Stats.LeakedFrameBytes != 0 {
		t.Fatalf("stats %+v: frame bytes leaked", ss.Stats)
	}
	srv.Close()
	if srv.Metrics().Assists == 0 {
		t.Fatal("the cancelled group was never helped")
	}
	waitGoroutines(t, base)
}
