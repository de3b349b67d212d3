package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"mpeg2par/internal/frame"
)

// pollQueue builds an improved-mode queue over n one-task pictures of one
// macroblock row each; picture i predicts from picture i-1 when chained.
func pollQueue(n int, chained bool) (*sliceQueue, []*picState) {
	pics := make([]*picState, n)
	for i := range pics {
		var fwd *picState
		deps := int32(0)
		if chained && i > 0 {
			fwd = pics[i-1]
		}
		if chained && i < n-1 {
			deps = 1
		}
		pics[i] = windowTestPic(2, 1, fwd, nil, deps)
	}
	q := &sliceQueue{pics: slices.Clone(pics), improved: true, pool: frame.NewPool(32, 16), workers: 2}
	q.cond = sync.NewCond(&q.mu)
	return q, pics
}

type takeResult struct {
	p  *picState
	ok bool
}

// takeAsync runs one take of worker wi on its own goroutine.
func takeAsync(q *sliceQueue, wi int, ws *WorkerStats) <-chan takeResult {
	ch := make(chan takeResult, 1)
	go func() {
		p, _, ok := q.take(wi, ws, nil)
		ch <- takeResult{p, ok}
	}()
	return ch
}

// awaitBlocked returns once cond holds under q.mu. take keeps q.mu from its
// entry until it blocks, so a condition on what its entry wrote (q.out has
// an element for the worker) means the worker is blocked by now.
func awaitBlocked(t *testing.T, q *sliceQueue, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		q.mu.Lock()
		ok := cond()
		q.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func recv(t *testing.T, ch <-chan takeResult, what string) takeResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return takeResult{}
	}
}

// TestTakePollsWhilePeerHoldsTask: a wait that a peer's running task will
// end is polled, never slept through — and a failure that lands while the
// worker polls (cancellation) sends it home.
func TestTakePollsWhilePeerHoldsTask(t *testing.T) {
	for _, cancel := range []bool{false, true} {
		q, pics := pollQueue(2, true)
		q.closed = true
		var ws0, ws1 WorkerStats
		if p, _, ok := q.take(0, &ws0, nil); !ok || p != pics[0] {
			t.Fatal("worker 0 did not get the reference picture's task")
		}
		got := takeAsync(q, 1, &ws1)
		awaitBlocked(t, q, "worker 1 inside take", func() bool { return len(q.out) == 2 })
		time.Sleep(5 * time.Millisecond) // let it poll for a while
		if cancel {
			q.fail()
			if r := recv(t, got, "the poller to see the failure"); r.ok {
				t.Fatal("take handed out a task from a failed queue")
			}
		} else {
			if !q.finish(pics[0], 0, rowAddrs(pics[0], 0), &tally{}, nil) {
				t.Fatal("reference picture not done after its only task")
			}
			q.completePic(pics[0], ErrorStats{})
			if r := recv(t, got, "the dependent task"); !r.ok || r.p != pics[1] || ws1.Wait <= 0 {
				t.Fatalf("worker 1: take = %+v, want the dependent picture after a blocked wait", r)
			}
			q.shipPic(pics[0])
		}
		if ws1.Parks != 0 || ws1.Wait <= 0 {
			t.Fatalf("cancel %v: worker 1 slept %d times (wait %v) while its peer held the task it waited for", cancel, ws1.Parks, ws1.Wait)
		}
	}
}

// TestTakeParksOnUnboundedWaits: what only the scan process or the frame
// consumer can end is slept on, not polled. Each case leaves a worker
// blocked with no peer holding a task and checks that it went to sleep.
func TestTakeParksOnUnboundedWaits(t *testing.T) {
	asleep := func(ws *WorkerStats) func() bool { return func() bool { return ws.Parks == 1 } }

	// An empty queue the scan has not closed.
	q, pics := pollQueue(1, false)
	q.pics = nil
	var ws0, ws1 WorkerStats
	got0, got1 := takeAsync(q, 0, &ws0), takeAsync(q, 1, &ws1)
	awaitBlocked(t, q, "both workers asleep on the empty queue", func() bool { return ws0.Parks == 1 && ws1.Parks == 1 })
	q.append(pics)
	q.close()
	r0, r1 := recv(t, got0, "worker 0"), recv(t, got1, "worker 1")
	if r0.ok == r1.ok {
		t.Fatalf("one task appended, then closed: takes returned ok %v and %v", r0.ok, r1.ok)
	}

	// A peer that is handing its finished picture to the frame consumer:
	// the depth window keeps the next picture back until shipPic.
	q, pics = pollQueue(2, false)
	q.closed, q.depth = true, 1
	ws0, ws1 = WorkerStats{}, WorkerStats{}
	if _, _, ok := q.take(0, &ws0, nil); !ok {
		t.Fatal("worker 0 got no task")
	}
	q.finish(pics[0], 0, rowAddrs(pics[0], 0), &tally{}, nil)
	q.completePic(pics[0], ErrorStats{}) // worker 0 is now inside the display process
	got1 = takeAsync(q, 1, &ws1)
	awaitBlocked(t, q, "worker 1 asleep behind the depth window", asleep(&ws1))
	q.shipPic(pics[0])
	if r := recv(t, got1, "the next picture's task"); !r.ok || r.p != pics[1] {
		t.Fatalf("worker 1 after shipPic: %+v", r)
	}

	// A source that stalls after the peer has run the only task.
	stalledPool(t)()
}

// stalledPool leaves a two-worker pool the way a stalled source does:
// worker 1 has run the only task and handed its picture to display, and
// both workers are blocked in take on an empty, open queue — asleep,
// because neither holds a task. The returned function closes the queue and
// joins both.
func stalledPool(t *testing.T) (release func()) {
	t.Helper()
	q, pics := pollQueue(1, false)
	var ws0, ws1 WorkerStats
	if _, _, ok := q.take(1, &ws1, nil); !ok {
		t.Fatal("worker 1 got no task")
	}
	q.finish(pics[0], 0, rowAddrs(pics[0], 0), &tally{}, nil)
	q.completePic(pics[0], ErrorStats{})
	q.shipPic(pics[0])
	got0, got1 := takeAsync(q, 0, &ws0), takeAsync(q, 1, &ws1)
	awaitBlocked(t, q, "both workers asleep on the stalled queue", func() bool { return ws0.Parks == 1 && ws1.Parks == 1 })
	return func() {
		t.Helper()
		q.close()
		for _, got := range []<-chan takeResult{got0, got1} {
			if r := recv(t, got, "a worker"); r.ok {
				t.Fatal("take handed out a task from a drained queue")
			}
		}
	}
}

// TestPollerYieldsOnOneP: three workers on a single P — the pollers must
// give the processor to the worker they are waiting for, and the result
// must still be the sequential oracle's, split slices included.
func TestPollerYieldsOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tall := tallIPB(t, 96, 96, 7, 7)
	ix := buildIndex(t, tall.Data)
	rows := testStream(t, 96, 64, 12, 4)
	for _, tc := range []struct {
		name string
		data []byte
		opt  Options
	}{
		{"split, fail-fast", tall.Data, Options{SplitIndex: ix}},
		{"split, conceal", tall.Data, Options{SplitIndex: ix, Resilience: ConcealSlice}},
		{"rows", rows.Data, Options{Resilience: ConcealSlice}},
	} {
		want := sequentialFrames(t, tc.data)
		var sink collectSink
		tc.opt.Mode, tc.opt.Workers, tc.opt.Sink = ModeSliceImproved, 3, sink.add
		if _, err := Decode(tc.data, tc.opt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(sink.frames) != len(want) {
			t.Fatalf("%s: %d frames, want %d", tc.name, len(sink.frames), len(want))
		}
		for i := range want {
			if !sink.frames[i].Equal(want[i]) {
				t.Fatalf("%s: frame %d differs from the sequential oracle", tc.name, i)
			}
		}
	}
}
