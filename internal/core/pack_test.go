package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mpeg2par/internal/encoder"
	"mpeg2par/internal/faults"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/vldsplit"
)

// testOrder is a handout order the invariance tests put in packOrder's
// place.
type testOrder struct {
	name  string
	order func(costs []int64, workers int) []int
}

// testOrders returns the orders the invariance tests run every mode under
// — the scheduler's own (longest first, stream order on one worker),
// stream order, reversed, and two seeded shuffles — and restores the
// scheduler's packOrder when t ends. The caller assigns each to packOrder
// in turn; the tests do not run in parallel, because packOrder is shared.
func testOrders(t *testing.T) []testOrder {
	sched := packOrder
	t.Cleanup(func() { packOrder = sched })
	shuffle := func(seed int64) func([]int64, int) []int {
		rng := rand.New(rand.NewSource(seed))
		return func(costs []int64, _ int) []int { return rng.Perm(len(costs)) }
	}
	return []testOrder{
		{"lpt", sched},
		{"stream", func([]int64, int) []int { return nil }},
		{"reverse", func(costs []int64, _ int) []int {
			order := make([]int, len(costs))
			for i := range order {
				order[i] = len(costs) - 1 - i
			}
			return order
		}},
		{"random-1", shuffle(1)},
		{"random-99", shuffle(99)},
	}
}

func TestPackOrderProperties(t *testing.T) {
	costs := []int64{5, 7, 5, 7, 5}
	if got := packOrder([]int64{42}, 4); got != nil {
		t.Fatalf("single-task order = %v, want nil", got)
	}
	if got := packOrder(costs, 1); got != nil {
		t.Fatalf("one-worker order = %v, want nil (stream order)", got)
	}
	if got, want := packOrder(costs, 2), []int{1, 3, 0, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LPT order = %v, want %v (descending, ties in stream order)", got, want)
	}
}

// TestPackingMatchesSequential is the ordering-invariance contract on a
// clean stream: whatever order the scheduler hands tasks out in — stream
// order, longest-first, reversed, or seeded shuffles — every mode must
// reproduce the sequential oracle bit-exactly. The second stream is one
// tall slice a picture decoded with its split index, so segment tasks are
// packed too, and the slice modes must split it: into 4·workers segments,
// the band grain's count, since its 36 macroblocks are below TaskGrain's
// floor for a segment.
func TestPackingMatchesSequential(t *testing.T) {
	tall, err := encoder.EncodeSequence(encoder.Config{
		Width: 48, Height: 192, Pictures: 12, GOPSize: 4, RepeatSequenceHeader: true, RowsPerSlice: 12,
	}, frame.NewSynth(48, 192))
	if err != nil {
		t.Fatal(err)
	}
	orders := testOrders(t)
	for _, in := range []struct {
		name string
		data []byte
		ix   *vldsplit.Index
	}{
		{"rows", testStream(t, 96, 64, 12, 4).Data, nil},
		{"tall", tall.Data, buildIndex(t, tall.Data)},
	} {
		want := sequentialFrames(t, in.data)
		for _, mode := range everyMode {
			for _, pk := range orders {
				packOrder = pk.order
				for _, workers := range []int{1, 3} {
					id := fmt.Sprintf("%s %v/%s/%d", in.name, mode, pk.name, workers)
					var sink collectSink
					st, err := Decode(in.data, Options{Mode: mode, Workers: workers, Sink: sink.add, SplitIndex: in.ix, SplitParts: 4 * workers})
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					if in.ix != nil && mode.sliceGrain() && st.Split.VerifyHits == 0 {
						t.Fatalf("%s: no slice split: %+v", id, st.Split)
					}
					if len(sink.frames) != len(want) {
						t.Fatalf("%s: %d frames, want %d", id, len(sink.frames), len(want))
					}
					for i := range want {
						if !sink.frames[i].Equal(want[i]) {
							t.Fatalf("%s: frame %d differs from sequential decode", id, i)
						}
					}
				}
			}
		}
	}
}

// TestPackingResilientGolden extends the invariance contract to damaged
// streams: packing must not change which slices are damaged, how they
// are concealed, or the error accounting — same-row slices stay
// serialized inside one task regardless of task order — and neither must
// the pool size, on which the plan's task grain depends (the 12-row
// stream is planned three, two and one row a task).
func TestPackingResilientGolden(t *testing.T) {
	orders := testOrders(t)
	for _, dim := range [][2]int{{96, 64}, {48, 192}} {
		res := testStream(t, dim[0], dim[1], 12, 4)
		for _, spec := range []string{"burst:count=2,len=24", "dropslice:3"} {
			sp, err := faults.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			mut, _ := sp.Apply(res.Data, 2)
			for _, policy := range []Resilience{ConcealSlice, DropGOP} {
				want, wantSt, refErr := decodeResilientRun(t, mut, ModeSequential, 1, policy)
				for _, mode := range []Mode{ModeGOP, ModeSliceImproved} {
					for _, workers := range []int{1, 2, 3, 4, 8} {
						for _, pk := range orders {
							packOrder = pk.order
							id := fmt.Sprintf("%dx%d %s/%v %v/%d/%s", dim[0], dim[1], spec, policy, mode, workers, pk.name)
							var sink collectSink
							st, err := Decode(mut, Options{Mode: mode, Workers: workers, Resilience: policy, Sink: sink.add})
							if refErr != nil {
								// Damage the policy cannot absorb: every packing
								// must fail exactly where sequential fails.
								if err == nil {
									t.Fatalf("%s: decoded cleanly where sequential failed (%v)", id, refErr)
								}
								continue
							}
							if err != nil {
								t.Fatalf("%s: %v", id, err)
							}
							if st.Errors != wantSt.Errors {
								t.Fatalf("%s: error stats %+v, sequential %+v", id, st.Errors, wantSt.Errors)
							}
							if len(sink.frames) != len(want) {
								t.Fatalf("%s: %d frames, want %d", id, len(sink.frames), len(want))
							}
							for i := range want {
								if !sink.frames[i].Equal(want[i]) {
									t.Fatalf("%s: frame %d differs from sequential", id, i)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestModeAutoBatch checks the auto-tuned batch decode: bit-exact against
// the sequential oracle, with the resolved decision reported in
// Stats.Auto.
func TestModeAutoBatch(t *testing.T) {
	res := testStream(t, 96, 64, 12, 4)
	want := sequentialFrames(t, res.Data)
	for _, workers := range []int{1, 2, 4} {
		var sink collectSink
		st, err := Decode(res.Data, Options{Mode: ModeAuto, Workers: workers, Sink: sink.add})
		if err != nil {
			t.Fatalf("auto/%d: %v", workers, err)
		}
		if st.Auto == nil {
			t.Fatalf("auto/%d: Stats.Auto not reported", workers)
		}
		if st.Mode == ModeAuto {
			t.Fatalf("auto/%d: Stats.Mode still ModeAuto, want the resolved mode", workers)
		}
		if st.Auto.Mode != st.Mode {
			t.Fatalf("auto/%d: decision mode %v vs resolved %v", workers, st.Auto.Mode, st.Mode)
		}
		if st.Auto.Workers < 1 || st.Auto.Workers > workers {
			t.Fatalf("auto/%d: chose %d workers outside [1,%d]", workers, st.Auto.Workers, workers)
		}
		if st.Auto.Reason == "" {
			t.Fatalf("auto/%d: empty decision reason", workers)
		}
		if len(sink.frames) != len(want) {
			t.Fatalf("auto/%d: %d frames, want %d", workers, len(sink.frames), len(want))
		}
		for i := range want {
			if !sink.frames[i].Equal(want[i]) {
				t.Fatalf("auto/%d: frame %d differs from sequential decode", workers, i)
			}
		}
	}
}

// TestSliceBytesInvariant pins the scan-side cost input: every scanned
// slice's Bytes equals its End-Offset span (the invariant that survives
// offset rebasing on the streaming path).
func TestSliceBytesInvariant(t *testing.T) {
	res := testStream(t, 80, 48, 12, 4)
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for g := range m.GOPs {
		for pi := range m.GOPs[g].Pictures {
			for si, s := range m.GOPs[g].Pictures[pi].Slices {
				if s.Bytes != s.End-s.Offset {
					t.Fatalf("GOP %d pic %d slice %d: Bytes=%d, End-Offset=%d",
						g, pi, si, s.Bytes, s.End-s.Offset)
				}
				if s.Bytes <= 0 {
					t.Fatalf("GOP %d pic %d slice %d: non-positive Bytes %d", g, pi, si, s.Bytes)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no slices checked")
	}
}
