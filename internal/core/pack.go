package core

import (
	"fmt"
	"math/rand"

	"mpeg2par/internal/sched"
)

// Packing selects the order the slice queue hands out the tasks of one
// picture (GOP tasks always go in stream order, inside the MaxInFlight
// window). Every packing produces bit-identical output — tasks of one
// picture write disjoint macroblock rows and the queue's barrier
// discipline serializes pictures — so the order is purely a load-balance
// decision; the ordering-invariance tests pin the property.
type Packing int

const (
	// PackLPT hands tasks out longest-first by predicted (byte-size)
	// cost — classic longest-processing-time-first list scheduling, the
	// default. Big tasks start early so small ones can level the tail.
	PackLPT Packing = iota
	// PackFIFO preserves slice order (the paper's).
	PackFIFO
	// PackReverse hands tasks out in reverse stream order (adversarial
	// order for the invariance tests).
	PackReverse
	// PackRandom shuffles tasks with the seed in Options.PackSeed
	// (property-test order).
	PackRandom
)

func (p Packing) String() string {
	switch p {
	case PackLPT:
		return "lpt"
	case PackFIFO:
		return "fifo"
	case PackReverse:
		return "reverse"
	case PackRandom:
		return "random"
	}
	return fmt.Sprintf("Packing(%d)", int(p))
}

// packOrder returns the order to hand out len(costs) tasks under the
// given packing. The identity order comes back as nil (callers treat
// nil as FIFO and skip the indirection).
func packOrder(costs []int64, packing Packing, seed int64) []int {
	n := len(costs)
	if n < 2 {
		return nil
	}
	switch packing {
	case PackLPT:
		return sched.LPT(costs)
	case PackReverse:
		order := make([]int, n)
		for i := range order {
			order[i] = n - 1 - i
		}
		return order
	case PackRandom:
		return rand.New(rand.NewSource(seed)).Perm(n)
	}
	return nil // PackFIFO and anything unknown: stream order
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
