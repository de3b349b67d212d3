package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpeg2par/internal/frame"
)

// execDecode drives a StreamExecutor in the given mode as the streaming
// decoder does: one unit per scanned group, then Finish. With stopAt > 0
// the decode is cancelled once stopAt groups have been fed.
func execDecode(t *testing.T, data []byte, m *StreamMap, opt Options, stopAt int) (*Stats, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := NewStreamExecutor(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	var feedErr error
	for g := 0; g < len(m.GOPs) && feedErr == nil; g++ {
		if stopAt > 0 && g == stopAt {
			cancel()
			feedErr = ctx.Err()
			break
		}
		feedErr = e.Feed(Unit{G: g, Data: data, Range: m.GOPs[g], Seq: m.Seq})
	}
	return e.Finish(feedErr)
}

// poolDecode drives a Session as the service does: this goroutine feeds
// it one unit per scanned group, and a pool of two goroutines, each with
// its own Scratch, executes the tasks through Run. With stopAt > 0 the
// decode is cancelled once stopAt groups have been fed.
func poolDecode(t *testing.T, data []byte, m *StreamMap, opt Options, stopAt int) (*Stats, error) {
	t.Helper()
	s, err := NewSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make(chan *SessionTask, len(m.GOPs))
	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var scr Scratch
			for tk := range tasks {
				s.Run(tk, wi, &scr) // a failure latches in the session
			}
		}(wi)
	}
	var feedErr error
	for g := 0; g < len(m.GOPs) && feedErr == nil; g++ {
		if stopAt > 0 && g == stopAt {
			feedErr = context.Canceled
			break
		}
		var tk *SessionTask
		tk, feedErr = s.FeedShed(Unit{G: g, Data: data, Range: m.GOPs[g], Seq: m.Seq}, ShedNone)
		if tk != nil {
			tasks <- tk
		}
	}
	close(tasks)
	wg.Wait()
	return s.Finish(feedErr)
}

// dropSlice returns data without the bytes of one slice of group g's
// first picture: the picture decodes short of that slice's macroblocks,
// which FailFast reports and the concealing policies conceal.
func dropSlice(t *testing.T, data []byte, g int) []byte {
	t.Helper()
	m, err := Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	sr := m.GOPs[g].Pictures[0].Slices[1]
	return append(append([]byte(nil), data[:sr.Offset]...), data[sr.End:]...)
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after teardown, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineParity: the streaming decoder's GOP mode and the service's
// shared pool run one engine (Session.Run), so on a clean and on a faulted
// stream, under every policy, they deliver the same frames and the same
// counts — or fail with the same error — and both tear down a cancelled
// decode with no frame bytes and no goroutines left behind.
func TestEngineParity(t *testing.T) {
	clean := testStream(t, 96, 64, 16, 4).Data
	streams := []struct {
		name string
		data []byte
	}{{"clean", clean}, {"faulted", dropSlice(t, clean, 1)}}
	for _, sc := range streams {
		m, err := ScanLenient(sc.data)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []Resilience{FailFast, ConcealSlice, ConcealPicture} {
			var a, b collectSink
			stA, errA := execDecode(t, sc.data, m, Options{Mode: ModeGOP, Workers: 2, Resilience: policy, Sink: a.add}, 0)
			stB, errB := poolDecode(t, sc.data, m, Options{Workers: 2, Resilience: policy, Sink: b.add}, 0)
			name := sc.name + "/" + policy.String()
			if (errA == nil) != (errB == nil) || errA != nil && errA.Error() != errB.Error() {
				t.Fatalf("%s: executor err %v, session err %v", name, errA, errB)
			}
			if wantErr := sc.name == "faulted" && policy == FailFast; (errA != nil) != wantErr {
				t.Fatalf("%s: err %v, want an error: %v", name, errA, wantErr)
			}
			if errA != nil {
				continue
			}
			if sc.name == "faulted" && !stA.Errors.Any() {
				t.Fatalf("%s: the dropped slice was not accounted", name)
			}
			if stA.Work != stB.Work || stA.Errors != stB.Errors || stA.Shed != stB.Shed ||
				stA.Pictures != stB.Pictures || stA.Displayed != stB.Displayed {
				t.Fatalf("%s: executor stats %+v / %+v / %d of %d, session %+v / %+v / %d of %d", name,
					stA.Work, stA.Errors, stA.Displayed, stA.Pictures, stB.Work, stB.Errors, stB.Displayed, stB.Pictures)
			}
			if len(a.frames) != stA.Displayed || len(b.frames) != len(a.frames) {
				t.Fatalf("%s: %d and %d frames delivered, %d displayed", name, len(a.frames), len(b.frames), stA.Displayed)
			}
			for i := range a.frames {
				if !a.frames[i].Equal(b.frames[i]) {
					t.Fatalf("%s: frame %d differs between executor and session", name, i)
				}
			}
		}
	}

	m, err := Scan(clean)
	if err != nil {
		t.Fatal(err)
	}
	st, err := poolDecode(t, clean, m, Options{Workers: 2, Profile: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.GOPCosts) != len(m.GOPs) {
		t.Fatalf("session profile: %d GOP costs for %d groups", len(st.GOPCosts), len(m.GOPs))
	}
	pics := 0
	for g, c := range st.GOPCosts {
		if c.Cost <= 0 || c.Work.MBs == 0 {
			t.Fatalf("session profile: group %d cost %+v", g, c)
		}
		pics += len(m.GOPs[g].Pictures)
	}
	if len(st.SliceProf) != pics {
		t.Fatalf("session profile: %d picture profiles for %d pictures", len(st.SliceProf), pics)
	}

	for _, run := range []struct {
		name string
		fn   func(*testing.T, []byte, *StreamMap, Options, int) (*Stats, error)
	}{{"executor", execDecode}, {"session", poolDecode}} {
		base := runtime.NumGoroutine()
		st, err := run.fn(t, clean, m, Options{Mode: ModeGOP, Workers: 2, Sink: func(*frame.Frame) {}}, 2)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s cancelled after two groups: err %v", run.name, err)
		}
		if st.LeakedFrameBytes != 0 {
			t.Fatalf("%s cancelled after two groups: %d frame bytes leaked", run.name, st.LeakedFrameBytes)
		}
		waitGoroutines(t, base, run.name)
	}
}
