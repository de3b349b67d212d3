package core

import (
	"sync"
	"testing"

	"mpeg2par/internal/memtrace"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/vldsplit"
)

// TestAffinityInvariance pins that task steering never changes output: on
// one worker (no steering) and on three (band steering) the slice modes
// must reproduce the sequential decode exactly.
func TestAffinityInvariance(t *testing.T) {
	res := testStream(t, 96, 64, 13, 13)
	want := sequentialFrames(t, res.Data)
	for _, workers := range []int{1, 3} {
		for _, mode := range []Mode{ModeSliceSimple, ModeSliceImproved} {
			var sink collectSink
			_, err := Decode(res.Data, Options{Mode: mode, Workers: workers, Sink: sink.add})
			if err != nil {
				t.Fatalf("%v/%d: %v", mode, workers, err)
			}
			if len(sink.frames) != len(want) {
				t.Fatalf("%v/%d: %d frames, want %d", mode, workers, len(sink.frames), len(want))
			}
			for i := range want {
				if !sink.frames[i].Equal(want[i]) {
					t.Fatalf("%v/%d: frame %d differs from sequential decode", mode, workers, i)
				}
			}
		}
	}
}

// pickHead runs the ungated pickTask (every task runnable) and returns
// the task it moved to the head of p's handout order.
func pickHead(q *sliceQueue, p *picState, wi int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.pickTask(p, wi, false) {
		return -1
	}
	return p.handout(p.nextSlice)
}

// TestPickTaskSteering checks the queue-level steering directly: a worker
// receives the tasks that start in its horizontal band of the picture
// while any remain, then falls back to whatever is left (work
// conservation), and every task is handed out exactly once.
func TestPickTaskSteering(t *testing.T) {
	const rows, workers = 8, 2
	q := &sliceQueue{workers: workers}
	q.cond = sync.NewCond(&q.mu)
	p := windowTestPic(2, rows, nil, nil, 0) // one task per row

	take := func(wi int) int {
		ti := pickHead(q, p, wi)
		p.nextSlice++
		return p.rng.Slices[ti].Row
	}

	// Worker 1 drains its own band, the lower half, first...
	for _, want := range []int{4, 5, 6, 7} {
		if got := take(1); got != want {
			t.Fatalf("worker 1: got row %d, want %d", got, want)
		}
	}
	// ...then falls back to worker 0's rows rather than idling.
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		seen[take(1)] = true
	}
	for _, want := range []int{0, 1, 2, 3} {
		if !seen[want] {
			t.Fatalf("fallback never handed out row %d (got %v)", want, seen)
		}
	}
	if p.nextSlice != rows {
		t.Fatalf("handed out %d tasks, want %d", p.nextSlice, rows)
	}
}

// TestPickTaskSteeringGroups checks steering over the plan path's fused
// tasks and over split segments: a fused task is steered by its first
// row, whichever rows follow; a segment of a split slice by the row its
// entry point is on; a task without rows is steered nowhere.
func TestPickTaskSteeringGroups(t *testing.T) {
	// 24 rows, row 17 claimed twice, three workers: tasks of two rows,
	// bands of eight.
	const mbw, mbh, workers = 2, 24, 3
	p := groupedTestPic(mbw, mbh, workers, func(r int) int {
		if r == 17 {
			return 2
		}
		return 1
	})
	if len(p.groups) != 12 {
		t.Fatalf("%d tasks, want 12 of two rows each: %v", len(p.groups), p.groups)
	}
	q := &sliceQueue{workers: workers}
	q.cond = sync.NewCond(&q.mu)
	firstRow := func(gi int) int { return p.rng.Slices[p.groups[gi][0]].Row }

	// Taking turns, each worker receives exactly the four tasks of its own
	// band (in whatever order the swaps leave them); rows 16-17, claimed
	// three times, are one task.
	got := make([]map[int]bool, workers)
	for round := 0; round < 4; round++ {
		for wi := 0; wi < workers; wi++ {
			gi := pickHead(q, p, wi)
			p.nextSlice++
			if got[wi] == nil {
				got[wi] = map[int]bool{}
			}
			got[wi][firstRow(gi)] = true
			if firstRow(gi) == 16 && len(p.groups[gi]) != 3 {
				t.Fatalf("rows 16-17 hold three slices, the task has %v", p.groups[gi])
			}
		}
	}
	for wi := 0; wi < workers; wi++ {
		for _, r := range []int{0, 2, 4, 6} {
			if !got[wi][8*wi+r] {
				t.Fatalf("worker %d received the tasks at rows %v, want those of rows %d..%d", wi, got[wi], 8*wi, 8*wi+7)
			}
		}
	}
	if p.nextSlice != p.nTasks {
		t.Fatalf("handed out %d of %d tasks", p.nextSlice, p.nTasks)
	}

	// Substitute pictures (nil group) have no row: steering must not
	// panic and must fall back to the head task.
	sub := &picState{rng: p.rng, params: p.params, groups: [][]int{nil}, nTasks: 1, remaining: 1}
	if gi := pickHead(q, sub, 1); gi != 0 {
		t.Fatalf("substitute: got task %d, want 0", gi)
	}
	if _, _, _, ok := taskRows(sub, 0); ok {
		t.Fatal("an empty group resolved to rows")
	}

	// One slice over the whole picture, split at rows 8 and 16: segment k
	// has rows 8k..8k+7, enters on row 8k and goes to worker k.
	tall := groupedTestPic(mbw, mbh, workers, func(r int) int {
		if r == 0 {
			return 1
		}
		return 0
	})
	j := &splitJoin{si: 0, pts: []vldsplit.Point{
		{State: mpeg2.SplitState{PrevAddr: 8*mbw - 1}},
		{State: mpeg2.SplitState{PrevAddr: 16*mbw - 1}},
	}}
	tall.tasks = []segTask{{join: j, seg: 0}, {join: j, seg: 1}, {join: j, seg: 2}}
	tall.nTasks, tall.remaining = 3, 3
	for _, wi := range []int{2, 0, 1} {
		ti := pickHead(q, tall, wi)
		tall.nextSlice++
		if ti != wi {
			t.Fatalf("worker %d: got segment %d", wi, ti)
		}
		if r0, r1, entry, ok := taskRows(tall, ti); !ok || r0 != 8*wi || r1 != 8*wi+7 || entry != 8*wi {
			t.Fatalf("segment %d: rows %d..%d entry %d ok %v, want %d..%d entry %d",
				ti, r0, r1, entry, ok, 8*wi, 8*wi+7, 8*wi)
		}
	}
}

// TestTraceDecodeAssign pins that the two trace labelings cover the
// same reference stream — the same access sequence by kind and extent,
// with different processor labels. Addresses are not compared: private
// per-worker scratch buffers legitimately move when a task runs on a
// different processor.
func TestTraceDecodeAssign(t *testing.T) {
	// 80 rows high → 5 slices per picture: with 4 processors the
	// round-robin labeling shifts by one row each picture, so it cannot
	// coincide with the row labeling.
	res := testStream(t, 96, 80, 5, 5)
	run := func(bands bool) []memtrace.Event {
		rec := memtrace.NewRecorder()
		if err := TraceDecodeAssign(res.Data, ModeSliceSimple, 4, bands, rec); err != nil {
			t.Fatal(err)
		}
		return rec.Events()
	}
	rr := run(false)
	row := run(true)
	if len(rr) != len(row) {
		t.Fatalf("event counts differ: %d round-robin vs %d row-affinity", len(rr), len(row))
	}
	differ := false
	for i := range rr {
		if rr[i].Size != row[i].Size || rr[i].Write != row[i].Write {
			t.Fatalf("event %d access differs between labelings", i)
		}
		if rr[i].Proc != row[i].Proc {
			differ = true
		}
	}
	if !differ {
		t.Fatal("labelings identical: row affinity never relabeled a task")
	}
}
