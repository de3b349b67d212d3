package sched

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestLPTOrderIsPermutationSortedDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		costs := make([]int64, n)
		for i := range costs {
			costs[i] = int64(rng.Intn(1000))
		}
		order := LPT(costs)
		if len(order) != n {
			t.Fatalf("trial %d: order has %d entries, want %d", trial, len(order), n)
		}
		seen := make([]bool, n)
		for k, i := range order {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("trial %d: not a permutation: %v", trial, order)
			}
			seen[i] = true
			if k > 0 && costs[i] > costs[order[k-1]] {
				t.Fatalf("trial %d: order not descending at %d: %v", trial, k, order)
			}
		}
	}
}

func TestLPTStableOnTies(t *testing.T) {
	costs := []int64{5, 7, 5, 7, 5}
	got := LPT(costs)
	want := []int{1, 3, 0, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LPT(%v) = %v, want %v", costs, got, want)
		}
	}
}

// TestMakespanBounds pins the list-scheduling guarantees: the makespan
// is at least both lower bounds (max task, total/workers) and at most
// total/workers + max task.
func TestMakespanBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(60)
		w := 1 + rng.Intn(16)
		costs := make([]int64, n)
		var sum, max int64
		for i := range costs {
			costs[i] = int64(1 + rng.Intn(5000))
			sum += costs[i]
			if costs[i] > max {
				max = costs[i]
			}
		}
		ms := Makespan(costs, w)
		lb := sum / int64(w)
		if ms < max || ms < lb {
			t.Fatalf("trial %d: makespan %d below lower bounds (max %d, avg %d)", trial, ms, max, lb)
		}
		if ms > lb+max {
			t.Fatalf("trial %d: makespan %d above avg+max bound %d", trial, ms, lb+max)
		}
		if w == 1 && ms != sum {
			t.Fatalf("trial %d: one-worker makespan %d != sum %d", trial, ms, sum)
		}
	}
}

func TestMakespanSkewedExample(t *testing.T) {
	// One huge task plus many small ones: LPT packing overlaps the small
	// tasks with the huge one, so the makespan is the huge task itself.
	costs := []int64{100, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	if ms := Makespan(costs, 2); ms != 100 {
		t.Fatalf("makespan %d, want 100 (small tasks hide behind the large)", ms)
	}
}

func TestCostModelCalibration(t *testing.T) {
	var m CostModel
	if m.Predict(1000) != 0 {
		t.Fatal("uncalibrated model must predict 0")
	}
	for i := 0; i < 50; i++ {
		m.Observe(1000, 2*time.Microsecond) // 2 ns/byte
	}
	if r := m.NsPerByte(); r < 1.9 || r > 2.1 {
		t.Fatalf("rate %.3f ns/byte, want ~2", r)
	}
	if p := m.Predict(10_000); p < 19*time.Microsecond || p > 21*time.Microsecond {
		t.Fatalf("predict %v, want ~20µs", p)
	}
	if m.Observations() != 50 {
		t.Fatalf("observations %d, want 50", m.Observations())
	}
	// Nil and junk observations are discarded.
	var nilModel *CostModel
	nilModel.Observe(10, time.Second)
	if nilModel.Predict(10) != 0 || nilModel.NsPerByte() != 0 {
		t.Fatal("nil model must stay inert")
	}
	m.Observe(-5, time.Second)
	m.Observe(5, -time.Second)
	if m.Observations() != 50 {
		t.Fatal("invalid observations must be ignored")
	}
}

func TestChooseSequentialCases(t *testing.T) {
	g := Geometry{GOPs: 4, Pictures: 40, TotalBytes: 1 << 20,
		GOPBytes: []int64{1 << 18, 1 << 18, 1 << 18, 1 << 18}}
	if c := Choose(g, 1, nil); c.Mode != HintSequential || c.Workers != 1 {
		t.Fatalf("one worker: got %+v", c)
	}
	short := Geometry{GOPs: 1, Pictures: 2, TotalBytes: 4096, GOPBytes: []int64{4096}}
	if c := Choose(short, 8, nil); c.Mode != HintSequential {
		t.Fatalf("2-picture stream: got %+v", c)
	}
	if c := Choose(Geometry{}, 8, nil); c.Mode != HintSequential {
		t.Fatalf("empty workload: got %+v", c)
	}
	// A single GOP with a single slice per picture has no parallelism
	// either way.
	flat := Geometry{GOPs: 1, Pictures: 8, TotalBytes: 8000,
		GOPBytes:   []int64{8000},
		SliceBytes: [][]int64{{1000}, {1000}, {1000}, {1000}, {1000}, {1000}, {1000}, {1000}}}
	if c := Choose(flat, 8, nil); c.Mode != HintSequential {
		t.Fatalf("no-parallelism stream: got %+v", c)
	}
}

func TestChooseBalancedGOPsPicksParallel(t *testing.T) {
	gops := make([]int64, 12)
	var pics [][]int64
	for i := range gops {
		gops[i] = 100_000
		for p := 0; p < 12; p++ {
			pics = append(pics, []int64{700, 700, 700, 700, 700, 700, 700, 700, 700, 700})
		}
	}
	g := Geometry{GOPs: 12, Pictures: 144, TotalBytes: 1_200_000,
		GOPBytes: gops, SliceBytes: pics}
	c := Choose(g, 4, nil)
	if c.Mode == HintSequential || c.Workers < 2 {
		t.Fatalf("balanced 12-GOP stream at 4 workers: got %+v", c)
	}
	if c.Reason == "" {
		t.Fatal("choice must carry a reason")
	}
}

func TestChooseSkewedGOPsPrefersSlices(t *testing.T) {
	// One GOP dwarfs the rest: GOP-grain cannot balance, slice grain can.
	gops := []int64{1_000_000, 10_000, 10_000, 10_000}
	var pics [][]int64
	for p := 0; p < 40; p++ {
		row := make([]int64, 16)
		for s := range row {
			row[s] = 1600
		}
		pics = append(pics, row)
	}
	g := Geometry{GOPs: 4, Pictures: 40, TotalBytes: 1_030_000,
		GOPBytes: gops, SliceBytes: pics}
	c := Choose(g, 8, nil)
	if c.Mode != HintSlice {
		t.Fatalf("skewed GOPs must choose slice grain: got %+v", c)
	}
}

func TestChooseEfficiencyKnee(t *testing.T) {
	// Two equal GOPs: two workers already reach the best GOP-grain
	// speedup; slice detail absent. More workers must not be chosen.
	g := Geometry{GOPs: 2, Pictures: 24, TotalBytes: 200_000,
		GOPBytes: []int64{100_000, 100_000}}
	c := Choose(g, 16, nil)
	if c.Mode != HintGOP || c.Workers != 2 {
		t.Fatalf("two equal GOPs: want gop x2, got %+v", c)
	}
}

func TestChooseReasonUsesModel(t *testing.T) {
	var m CostModel
	m.Observe(1000, time.Millisecond)
	g := Geometry{GOPs: 4, Pictures: 48, TotalBytes: 400_000,
		GOPBytes: []int64{100_000, 100_000, 100_000, 100_000}}
	c := Choose(g, 4, &m)
	if c.Mode == HintSequential {
		t.Fatalf("got %+v", c)
	}
	if c.Reason == "" {
		t.Fatal("want a reason mentioning predicted time")
	}
}

// TestCostModelColdStart pins the cold-start contract the scheduling
// and slack layers depend on: a model below the calibration floor
// reports Calibrated() false and predicts 0 — "cost unknown", which
// every consumer must treat as "be conservative", never as "free".
func TestCostModelColdStart(t *testing.T) {
	var m CostModel
	for i := 0; i < 3; i++ {
		if m.Calibrated() {
			t.Fatalf("calibrated after %d observations, floor is 3", i)
		}
		m.Observe(1000, 2*time.Microsecond)
	}
	if !m.Calibrated() {
		t.Fatal("not calibrated after 3 observations")
	}
	if m.Predict(1000) == 0 {
		t.Fatal("calibrated model must predict nonzero for nonzero bytes")
	}
	var nilModel *CostModel
	if nilModel.Calibrated() {
		t.Fatal("nil model must report uncalibrated")
	}
}

// TestChooseReasonGatedOnCalibration: a single noisy observation must
// not phrase an absolute-time estimate into the reason string — the
// suffix appears only once the model passes the calibration floor.
func TestChooseReasonGatedOnCalibration(t *testing.T) {
	g := Geometry{GOPs: 4, Pictures: 48, TotalBytes: 400_000,
		GOPBytes: []int64{100_000, 100_000, 100_000, 100_000}}
	var m CostModel
	m.Observe(1000, time.Millisecond) // one observation: below the floor
	if c := Choose(g, 4, &m); strings.Contains(c.Reason, "sequential)") {
		t.Fatalf("uncalibrated model quoted a time estimate: %q", c.Reason)
	}
	for i := 0; i < 3; i++ {
		m.Observe(1000, time.Millisecond)
	}
	if c := Choose(g, 4, &m); !strings.Contains(c.Reason, "sequential)") {
		t.Fatalf("calibrated model quoted no time estimate: %q", c.Reason)
	}
}
