package simsched

import (
	"container/heap"
	"time"
)

// SimulateSlicesMax simulates the slice-level decoder with the maximum
// concurrency the dependence structure allows — the scheme the paper
// declined to build because it "would require complex synchronization at
// the slice level" (§5.2). A slice may start as soon as the slices of
// its reference pictures that motion compensation can read (its own row
// ±vrange rows) are complete; there are no picture barriers at all.
//
// pics must be in decode order; refs are resolved like the decoder does
// (fwd = previous reference or the one before, bwd = previous reference
// for B pictures). vrange is the vertical motion reach in slice rows
// (half-pel vectors of ±(16·vrange−1) pixels stay inside it), applied to
// every picture. vrange 0 takes each picture's own Window instead — the
// readiness rule of core's improved slice queue, so a profile that
// carries the windows of its f_codes replays what the decoder now does
// (minus its pipeline-depth bound); a picture with Window 0 then waits
// for its whole reference pictures.
func SimulateSlicesMax(pics []SimPicture, workers, vrange int) Result {
	type task struct {
		pic, slice int
		cost       time.Duration
	}
	var tasks []task
	taskID := make(map[[2]int]int)
	for k, p := range pics {
		for s, c := range p.SliceCosts {
			taskID[[2]int{k, s}] = len(tasks)
			tasks = append(tasks, task{pic: k, slice: s, cost: c})
		}
	}
	n := len(tasks)

	// Resolve per-picture references (decode-order IPB semantics).
	fwd := make([]int, len(pics))
	bwd := make([]int, len(pics))
	refOld, refNew := -1, -1
	for k, p := range pics {
		fwd[k], bwd[k] = -1, -1
		if p.Ref {
			if refNew >= 0 && !p.Intra {
				fwd[k] = refNew // P picture predicts from the last reference
			}
			refOld, refNew = refNew, k
		} else {
			fwd[k], bwd[k] = refOld, refNew
		}
	}

	// Dependency edges: slice (k,s) waits for ref slices rows s±vrange.
	indeg := make([]int, n)
	dependents := make([][]int, n)
	addDep := func(from, to int) { // from must complete before to
		dependents[from] = append(dependents[from], to)
		indeg[to]++
	}
	for k, p := range pics {
		for s := range p.SliceCosts {
			id := taskID[[2]int{k, s}]
			for _, r := range []int{fwd[k], bwd[k]} {
				if r < 0 {
					continue
				}
				reach := vrange
				if reach < 1 {
					reach = p.Window
				}
				if reach < 1 {
					reach = len(pics[r].SliceCosts)
				}
				for rs := s - reach; rs <= s+reach; rs++ {
					if rs < 0 || rs >= len(pics[r].SliceCosts) {
						continue
					}
					addDep(taskID[[2]int{r, rs}], id)
				}
			}
		}
	}

	// Event-driven list scheduling: ready tasks (all deps complete) are
	// taken in decode order by the earliest-free worker.
	ready := &intHeap{}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			heap.Push(ready, i)
		}
	}
	events := &completionHeap{}
	ws := newWorkers(workers)
	wfree := &durHeap{}
	for i := 0; i < workers; i++ {
		heap.Push(wfree, workerSlot{0, i})
	}
	var makespan time.Duration
	now := time.Duration(0)
	scheduled := 0
	for scheduled < n {
		// Start every ready task we have an idle worker for.
		for ready.Len() > 0 && wfree.Len() > 0 && (*wfree)[0].free <= now {
			id := heap.Pop(ready).(int)
			slot := heap.Pop(wfree).(workerSlot)
			start := now
			if slot.free > start {
				start = slot.free
			}
			end := start + tasks[id].cost
			ws.busy[slot.id] += tasks[id].cost
			ws.n[slot.id]++
			heap.Push(wfree, workerSlot{end, slot.id})
			heap.Push(events, completionEv{end, id})
			if end > makespan {
				makespan = end
			}
			scheduled++
		}
		if scheduled >= n {
			break
		}
		if events.Len() == 0 {
			// No work in flight and nothing ready: cyclic dependency
			// (cannot happen with decode-order references). Bail out.
			break
		}
		ev := heap.Pop(events).(completionEv)
		if ev.t > now {
			now = ev.t
		}
		for _, d := range dependents[ev.taskID] {
			indeg[d]--
			if indeg[d] == 0 {
				heap.Push(ready, d)
			}
		}
		// Drain any completions at the same instant.
		for events.Len() > 0 && (*events)[0].t <= now {
			e2 := heap.Pop(events).(completionEv)
			for _, d := range dependents[e2.taskID] {
				indeg[d]--
				if indeg[d] == 0 {
					heap.Push(ready, d)
				}
			}
		}
	}
	r := ws.result(makespan)
	r.PeakFrames = 0 // not modeled for this variant
	return r
}

// --- small heaps -------------------------------------------------------------

type intHeap []int

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

type workerSlot struct {
	free time.Duration
	id   int
}

type durHeap []workerSlot

func (h durHeap) Len() int { return len(h) }
func (h durHeap) Less(i, j int) bool {
	if h[i].free != h[j].free {
		return h[i].free < h[j].free
	}
	return h[i].id < h[j].id
}
func (h durHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *durHeap) Push(x interface{}) { *h = append(*h, x.(workerSlot)) }
func (h *durHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// completionEv is a scheduled task completion.
type completionEv struct {
	t      time.Duration
	taskID int
}

type completionHeap []completionEv

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].taskID < h[j].taskID
}
func (h completionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x interface{}) { *h = append(*h, x.(completionEv)) }
func (h *completionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
