package core

import (
	"sync"
	"testing"

	"mpeg2par/internal/memtrace"
)

// TestAffinityInvariance pins that task steering never changes output:
// AffinityNone (the paper's dynamic assignment) must reproduce the
// sequential decode exactly, like the default AffinityRow, which every
// other test exercises.
func TestAffinityInvariance(t *testing.T) {
	res := testStream(t, 96, 64, 13, 13)
	want := sequentialFrames(t, res.Data)
	for _, aff := range []Affinity{AffinityRow, AffinityNone} {
		for _, mode := range []Mode{ModeSliceSimple, ModeSliceImproved} {
			var sink collectSink
			_, err := Decode(res.Data, Options{Mode: mode, Workers: 3, Affinity: aff, Sink: sink.add})
			if err != nil {
				t.Fatalf("%v/%v: %v", mode, aff, err)
			}
			if len(sink.frames) != len(want) {
				t.Fatalf("%v/%v: %d frames, want %d", mode, aff, len(sink.frames), len(want))
			}
			for i := range want {
				if !sink.frames[i].Equal(want[i]) {
					t.Fatalf("%v/%v: frame %d differs from sequential decode", mode, aff, i)
				}
			}
		}
	}
}

// affinityTestPic builds a picState with one slice per row, rows 0..n-1
// in stream order.
func affinityTestPic(n int) *picState {
	pr := &PictureRange{}
	for r := 0; r < n; r++ {
		pr.Slices = append(pr.Slices, SliceRange{Row: r})
	}
	return &picState{rng: pr, nTasks: n, remaining: n}
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

// TestPickTaskSteering checks the queue-level steering directly: with
// row affinity a worker receives rows ≡ its index (mod workers) while
// any remain, then falls back to whatever is left (work conservation),
// and every task is handed out exactly once.
func TestPickTaskSteering(t *testing.T) {
	const rows, workers = 8, 2
	q := &sliceQueue{workers: workers, affinity: AffinityRow}
	q.cond = sync.NewCond(&q.mu)
	p := affinityTestPic(rows)

	take := func(wi int) int {
		ti := pickHead(q, p, wi)
		p.nextSlice++
		return p.rng.Slices[ti].Row
	}

	// Worker 1 drains its own residue class first...
	for _, want := range []int{1, 3, 5, 7} {
		if got := take(1); got != want {
			t.Fatalf("worker 1: got row %d, want %d", got, want)
		}
	}
	// ...then falls back to worker 0's rows rather than idling.
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		seen[take(1)] = true
	}
	for _, want := range []int{0, 2, 4, 6} {
		if !seen[want] {
			t.Fatalf("fallback never handed out row %d (got %v)", want, seen)
		}
	}
	if p.nextSlice != rows {
		t.Fatalf("handed out %d tasks, want %d", p.nextSlice, rows)
	}

	// AffinityNone must preserve pure queue order.
	q2 := &sliceQueue{workers: workers, affinity: AffinityNone}
	q2.cond = sync.NewCond(&q2.mu)
	p2 := affinityTestPic(rows)
	for want := 0; want < rows; want++ {
		ti := pickHead(q2, p2, 1)
		p2.nextSlice++
		if p2.rng.Slices[ti].Row != want {
			t.Fatalf("AffinityNone: got row %d, want %d", p2.rng.Slices[ti].Row, want)
		}
	}
}

// TestPickTaskSteeringGroups checks steering over resilient-plan row
// groups: the group's row is its first slice's row.
func TestPickTaskSteeringGroups(t *testing.T) {
	pr := &PictureRange{Slices: []SliceRange{{Row: 0}, {Row: 1}, {Row: 1}, {Row: 2}}}
	p := &picState{rng: pr, groups: [][]int{{0}, {1, 2}, {3}}, nTasks: 3, remaining: 3}
	q := &sliceQueue{workers: 3, affinity: AffinityRow}
	q.cond = sync.NewCond(&q.mu)

	gi := pickHead(q, p, 2) // worker 2 should get the row-2 group
	if want := 2; gi != want {
		t.Fatalf("worker 2: got group %d, want %d", gi, want)
	}
	if r := taskRow(p, gi); r != 2 {
		t.Fatalf("group %d row = %d, want 2", gi, r)
	}

	// Substitute pictures (nil group) have no row: steering must not
	// panic and must fall back to the head task.
	sub := &picState{rng: pr, groups: [][]int{nil}, nTasks: 1, remaining: 1}
	gi = pickHead(q, sub, 1)
	if gi != 0 {
		t.Fatalf("substitute: got task %d, want 0", gi)
	}
	if r := taskRow(sub, 0); r != -1 {
		t.Fatalf("substitute row = %d, want -1", r)
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
	run := func(aff Affinity) []memtrace.Event {
		rec := memtrace.NewRecorder()
		if err := TraceDecodeAssign(res.Data, ModeSliceSimple, 4, aff, rec); err != nil {
			t.Fatal(err)
		}
		return rec.Events()
	}
	rr := run(AffinityNone)
	row := run(AffinityRow)
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
