package core

import "mpeg2par/internal/sched"

// packOrder returns the order the slice queue hands out the tasks of one
// picture, given their byte-size costs and the size of the pool that runs
// them: longest first by predicted cost (longest-processing-time-first list
// scheduling), so big tasks start early and small ones level the tail —
// except on a one-worker pool, where order cannot change the makespan and
// tasks go in stream order. The identity order comes back as nil (callers
// treat nil as stream order and skip the indirection). GOP tasks always go
// in stream order, inside the MaxInFlight window.
//
// Every order produces bit-identical output — tasks of one picture write
// disjoint macroblock rows and the queue's barrier discipline serializes
// pictures — so the order is purely a load-balance decision. The
// ordering-invariance tests swap this variable for adversarial orders to
// pin the property.
var packOrder = func(costs []int64, workers int) []int {
	if workers < 2 || len(costs) < 2 {
		return nil
	}
	return sched.LPT(costs)
}

// gopCosts returns the per-GOP byte-size cost vector of a scan.
func gopCosts(gops []GOPRange) []int64 {
	costs := make([]int64, len(gops))
	for i := range gops {
		costs[i] = int64(gops[i].End - gops[i].Offset)
	}
	return costs
}

// groupCost totals the byte sizes of one row-group's slices.
func groupCost(slices []SliceRange, group []int) int64 {
	var c int64
	for _, si := range group {
		c += int64(slices[si].Bytes)
	}
	return c
}

// sliceCosts returns the per-slice byte-size cost vector of a picture.
func sliceCosts(slices []SliceRange) []int64 {
	costs := make([]int64, len(slices))
	for i := range slices {
		costs[i] = int64(slices[i].Bytes)
	}
	return costs
}
