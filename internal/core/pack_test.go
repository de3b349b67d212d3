package core

import (
	"fmt"
	"reflect"
	"testing"

	"mpeg2par/internal/faults"
)

// packings exercised by the invariance tests: every discipline the
// scheduler can emit, including two random shuffles.
var testPackings = []struct {
	name    string
	packing Packing
	seed    int64
}{
	{"fifo", PackFIFO, 0},
	{"lpt", PackLPT, 0},
	{"reverse", PackReverse, 0},
	{"random-1", PackRandom, 1},
	{"random-99", PackRandom, 99},
}

func TestPackOrderProperties(t *testing.T) {
	costs := []int64{5, 7, 5, 7, 5}
	if got := packOrder(costs, PackFIFO, 0); got != nil {
		t.Fatalf("FIFO order = %v, want nil (identity)", got)
	}
	if got := packOrder([]int64{42}, PackLPT, 0); got != nil {
		t.Fatalf("single-task order = %v, want nil", got)
	}
	if got, want := packOrder(costs, PackLPT, 0), []int{1, 3, 0, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LPT order = %v, want %v (descending, ties in stream order)", got, want)
	}
	if got, want := packOrder(costs[:4], PackReverse, 0), []int{3, 2, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reverse order = %v, want %v", got, want)
	}
	r1 := packOrder(costs, PackRandom, 7)
	r2 := packOrder(costs, PackRandom, 7)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("random order not deterministic per seed: %v vs %v", r1, r2)
	}
	seen := make([]bool, len(costs))
	for _, i := range r1 {
		if i < 0 || i >= len(costs) || seen[i] {
			t.Fatalf("random order %v is not a permutation", r1)
		}
		seen[i] = true
	}
}

// TestPackingMatchesSequential is the ordering-invariance contract on a
// clean stream: whatever order the scheduler hands tasks out in — stream
// order, longest-first, reversed, or seeded shuffles — every mode must
// reproduce the sequential oracle bit-exactly.
func TestPackingMatchesSequential(t *testing.T) {
	res := testStream(t, 96, 64, 12, 4)
	want := sequentialFrames(t, res.Data)
	for _, mode := range everyMode {
		for _, pk := range testPackings {
			for _, workers := range []int{1, 3} {
				var sink collectSink
				_, err := Decode(res.Data, Options{
					Mode: mode, Workers: workers, Sink: sink.add,
					Packing: pk.packing, PackSeed: pk.seed,
				})
				if err != nil {
					t.Fatalf("%v/%s/%d: %v", mode, pk.name, workers, err)
				}
				if len(sink.frames) != len(want) {
					t.Fatalf("%v/%s/%d: %d frames, want %d", mode, pk.name, workers, len(sink.frames), len(want))
				}
				for i := range want {
					if !sink.frames[i].Equal(want[i]) {
						t.Fatalf("%v/%s/%d: frame %d differs from sequential decode",
							mode, pk.name, workers, i)
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
						for _, pk := range testPackings {
							id := fmt.Sprintf("%dx%d %s/%v %v/%d/%s", dim[0], dim[1], spec, policy, mode, workers, pk.name)
							var sink collectSink
							st, err := Decode(mut, Options{
								Mode: mode, Workers: workers, Resilience: policy, Sink: sink.add,
								Packing: pk.packing, PackSeed: pk.seed,
							})
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
