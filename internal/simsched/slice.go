package simsched

import (
	"sort"
	"time"
)

// SimPicture is one picture of the slice-level simulation, in decode
// order.
type SimPicture struct {
	Ref        bool // I or P (reference) picture
	Intra      bool // I picture (needs no references at all)
	DisplayIdx int
	SliceCosts []time.Duration
	// Window is the vertical reach of the picture's motion vectors in
	// slice rows: a slice reads rows within Window of its own in each
	// reference picture. 0 means the whole picture. SimulateSlices does
	// not look at it (its rule is the paper's I/P barrier);
	// SimulateSlicesMax with vrange 0 replays it.
	Window int
}

// SimulateSlices runs the fine-grained decoder under P workers. Slices
// are issued strictly in decode order from the 2-D task queue; picture k
// opens under the variant's rule:
//
//   - simple:   when picture k-1 is complete (barrier after every picture)
//   - improved: when the most recent reference picture before k is
//     complete (barrier only after I/P pictures)
func SimulateSlices(pics []SimPicture, workers int, improved bool) Result {
	ws := newWorkers(workers)
	complete := make([]time.Duration, len(pics))
	firstStart := make([]time.Duration, len(pics))
	var open time.Duration
	lastRef := -1
	var makespan time.Duration
	for k, p := range pics {
		if improved {
			if lastRef >= 0 && complete[lastRef] > open {
				open = complete[lastRef]
			}
		} else if k > 0 && complete[k-1] > open {
			open = complete[k-1]
		}
		var end time.Duration
		for si, cost := range p.SliceCosts {
			s, e := ws.run(open, cost)
			if si == 0 {
				firstStart[k] = s
			}
			if e > end {
				end = e
			}
		}
		complete[k] = end
		if end > makespan {
			makespan = end
		}
		if p.Ref {
			lastRef = k
		}
	}
	r := ws.result(makespan)
	r.PeakFrames = slicePeakFrames(pics, firstStart, complete)
	return r
}

// slicePeakFrames counts live frames over time: a picture's frame is
// allocated when its first slice starts and freed when it has displayed
// (all earlier display indices complete) and no later picture will
// reference it.
func slicePeakFrames(pics []SimPicture, alloc, complete []time.Duration) int {
	n := len(pics)
	if n == 0 {
		return 0
	}
	// displayTime[k]: when picture k can leave the display queue = max
	// completion over pictures with display index <= k's.
	byDisplay := make([]int, n)
	for i := range byDisplay {
		byDisplay[i] = i
	}
	sort.Slice(byDisplay, func(a, b int) bool {
		return pics[byDisplay[a]].DisplayIdx < pics[byDisplay[b]].DisplayIdx
	})
	free := make([]time.Duration, n)
	var hi time.Duration
	for _, k := range byDisplay {
		if complete[k] > hi {
			hi = complete[k]
		}
		free[k] = hi
	}
	// Reference retention: a reference picture stays live until its last
	// dependent completes. Dependents of ref r are every picture between
	// r and the reference-after-next (standard IPB chains); conservatively
	// extend to the completion of any later picture that could reference
	// it: the pictures up to the next-next reference in decode order.
	refIdx := []int{}
	for k, p := range pics {
		if p.Ref {
			refIdx = append(refIdx, k)
		}
	}
	for ri, r := range refIdx {
		lastDep := r
		// Dependents: pictures after r, up to and including the next
		// reference and its trailing B pictures.
		end := n - 1
		if ri+2 < len(refIdx) {
			end = refIdx[ri+2] - 1
		}
		for k := r + 1; k <= end; k++ {
			lastDep = k
		}
		if complete[lastDep] > free[r] {
			free[r] = complete[lastDep]
		}
	}

	type ev struct {
		t     time.Duration
		delta int
	}
	var events []ev
	for k := 0; k < n; k++ {
		events = append(events, ev{alloc[k], 1}, ev{free[k] + 1, -1})
	}
	sort.Slice(events, func(a, b int) bool { return events[a].t < events[b].t })
	live, peak := 0, 0
	for _, e := range events {
		live += e.delta
		if live > peak {
			peak = live
		}
	}
	return peak
}
