// Package sched is the cost-model-driven adaptive scheduler: it turns
// the scan process's structural index into decode-cost estimates and
// uses them to (a) pack task queues in longest-processing-time-first
// order and (b) choose a parallelization mode and worker count for a
// workload up front.
//
// The paper's Figures 5-7 attribute the gap between ideal and achieved
// speedup to load imbalance and synchronization overhead; both are
// scheduling artifacts of FIFO dispatch over tasks of very uneven cost.
// Compressed size is an excellent proxy for decode cost — variable-length
// decoding is the sequential bottleneck and its time is proportional to
// bits consumed — so per-slice and per-GOP byte sizes, which the scan
// produces for free, are the cost model's inputs. Observed (bytes,
// duration) pairs from completed tasks refine the estimates into
// absolute time via CostModel.
//
// The package deliberately knows nothing about the decoder: it operates
// on abstract int64 costs and indices so internal/core can depend on it
// without a cycle.
package sched

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// CostModel calibrates byte-size cost estimates into predicted decode
// time: an exponentially weighted moving average of observed
// nanoseconds-per-byte over completed tasks. The zero value is a valid,
// uncalibrated model (Predict returns 0 until the first Observe). All
// methods are safe for concurrent use and safe on a nil receiver, so
// decode hot paths can call Observe unconditionally behind a pointer
// test.
type CostModel struct {
	rate atomic.Uint64 // float64 bits of the EWMA ns/byte
	obs  atomic.Int64  // observations folded in
}

// ewmaAlpha weights each new observation. Tasks arrive by the hundred
// per stream, so a fairly fast-moving average adapts to content changes
// while still smoothing single-task jitter.
const ewmaAlpha = 0.2

// Observe folds one completed task — bytes of compressed input, wall
// duration — into the model. Non-positive sizes or durations are
// ignored.
func (m *CostModel) Observe(bytes int64, d time.Duration) {
	if m == nil || bytes <= 0 || d <= 0 {
		return
	}
	r := float64(d.Nanoseconds()) / float64(bytes)
	for {
		old := m.rate.Load()
		cur := math.Float64frombits(old)
		next := r
		if cur > 0 {
			next = cur*(1-ewmaAlpha) + r*ewmaAlpha
		}
		if m.rate.CompareAndSwap(old, math.Float64bits(next)) {
			m.obs.Add(1)
			return
		}
	}
}

// calibrationMin is how many observations the model needs before its
// predictions may be used for control decisions (admission, slack,
// mode choice). A single observation is dominated by cold-cache and
// first-allocation noise; three smooths the worst of it while still
// calibrating within one stream's first GOPs.
const calibrationMin = 3

// Calibrated reports whether the model has folded in enough
// observations for Predict to be trusted in control decisions. Callers
// that multiply or compare against Predict must treat an uncalibrated
// model as "cost unknown — be conservative", never as "free": Predict
// returns 0 until the first Observe, and 0 reads as a free task to any
// naive comparison.
func (m *CostModel) Calibrated() bool {
	return m.Observations() >= calibrationMin
}

// NsPerByte returns the calibrated rate, 0 while uncalibrated.
func (m *CostModel) NsPerByte() float64 {
	if m == nil {
		return 0
	}
	return math.Float64frombits(m.rate.Load())
}

// Observations returns how many tasks have been folded in.
func (m *CostModel) Observations() int64 {
	if m == nil {
		return 0
	}
	return m.obs.Load()
}

// Predict converts a byte-size cost estimate into predicted decode
// time; 0 while the model is uncalibrated.
func (m *CostModel) Predict(bytes int64) time.Duration {
	r := m.NsPerByte()
	if r <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(r * float64(bytes))
}

// LPT returns the indices of costs in longest-processing-time-first
// order: a permutation of [0, len(costs)) sorted by descending cost,
// stable (equal costs keep their original relative order, so the
// packing is deterministic for a given cost vector).
func LPT(costs []int64) []int {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return costs[order[a]] > costs[order[b]]
	})
	return order
}

// Makespan list-schedules the costs, longest first, onto the given
// number of workers (each task goes to the least-loaded worker) and
// returns the finish time of the most-loaded worker — the classic LPT
// makespan, used to predict how well a task set balances at a worker
// count. workers < 1 is treated as 1.
func Makespan(costs []int64, workers int) int64 {
	if workers < 1 {
		workers = 1
	}
	if len(costs) == 0 {
		return 0
	}
	if workers > len(costs) {
		workers = len(costs)
	}
	loads := make([]int64, workers)
	for _, i := range LPT(costs) {
		min := 0
		for w := 1; w < workers; w++ {
			if loads[w] < loads[min] {
				min = w
			}
		}
		loads[min] += costs[i]
	}
	var max int64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// Sum totals a cost vector (the one-worker makespan).
func Sum(costs []int64) int64 {
	var s int64
	for _, c := range costs {
		s += c
	}
	return s
}
