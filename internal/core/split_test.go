package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mpeg2par/internal/encoder"
	"mpeg2par/internal/faults"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/vldsplit"
)

// tallStream encodes a stream whose every picture is one slice spanning
// all macroblock rows — the geometry with zero slice-level parallelism
// that intra-slice splitting exists for.
func tallStream(t testing.TB, w, h, pics, gop int) *encoder.Result {
	t.Helper()
	res, err := encoder.EncodeSequence(encoder.Config{
		Width: w, Height: h, Pictures: pics, GOPSize: gop,
		RepeatSequenceHeader: true,
		RowsPerSlice:         (h + 15) / 16,
	}, frame.NewSynth(w, h))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func buildIndex(t testing.TB, data []byte) *vldsplit.Index {
	t.Helper()
	m, err := Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndexScanned(data, m)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Slices() == 0 {
		t.Fatal("index covered no slices on a tall-slice stream")
	}
	return ix
}

// TestSplitIndexedBitExact is the tentpole contract: with an exact split
// index, every slice mode, worker count and policy reproduces the
// sequential oracle's frames bit for bit — and on a clean stream every
// segment chain verifies, so no slice ever falls back.
func TestSplitIndexedBitExact(t *testing.T) {
	res := tallStream(t, 96, 64, 8, 4)
	want := sequentialFrames(t, res.Data)
	ix := buildIndex(t, res.Data)

	for _, mode := range []Mode{ModeSliceSimple, ModeSliceImproved} {
		for _, workers := range []int{1, 3} {
			for _, policy := range []Resilience{FailFast, ConcealSlice} {
				var sink collectSink
				st, err := Decode(res.Data, Options{
					Mode: mode, Workers: workers, Resilience: policy,
					SplitIndex: ix, SplitParts: 3, Sink: sink.add,
				})
				if err != nil {
					t.Fatalf("%v/%d %v: %v", mode, workers, policy, err)
				}
				if st.Split.SlicesSplit == 0 {
					t.Fatalf("%v/%d %v: no slices split on tall-slice stream", mode, workers, policy)
				}
				if st.Split.VerifyMisses != 0 || st.Split.Fallbacks != 0 {
					t.Fatalf("%v/%d %v: exact index missed verification: %+v", mode, workers, policy, st.Split)
				}
				if len(sink.frames) != len(want) {
					t.Fatalf("%v/%d %v: %d frames, want %d", mode, workers, policy, len(sink.frames), len(want))
				}
				for i := range want {
					if !sink.frames[i].Equal(want[i]) {
						t.Fatalf("%v/%d %v: frame %d differs from sequential", mode, workers, policy, i)
					}
				}
			}
		}
	}
}

// TestPoisonedIndexFallsBack: an index whose points are structurally
// valid but wrong (offsets shifted) must never change the output — every
// poisoned slice fails verification and is re-decoded sequentially, even
// under FailFast.
func TestPoisonedIndexFallsBack(t *testing.T) {
	res := tallStream(t, 96, 64, 8, 4)
	want := sequentialFrames(t, res.Data)
	ix := buildIndex(t, res.Data)

	poisoned := vldsplit.NewIndex()
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range m.GOPs {
		for pi := range m.GOPs[gi].Pictures {
			for _, sr := range m.GOPs[gi].Pictures[pi].Slices {
				sd := res.Data[sr.Offset:sr.End]
				pts := ix.Lookup(sd)
				if pts == nil {
					continue
				}
				bad := append([]vldsplit.Point(nil), pts...)
				for i := range bad {
					bad[i].BitOff += 7 // valid range, wrong position
				}
				if err := poisoned.Add(sd, bad); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if poisoned.Slices() == 0 {
		t.Fatal("built no poisoned entries")
	}

	var sink collectSink
	st, err := Decode(res.Data, Options{
		Mode: ModeSliceImproved, Workers: 3,
		SplitIndex: poisoned, SplitParts: 3, Sink: sink.add,
	})
	if err != nil {
		t.Fatalf("poisoned index broke a FailFast decode: %v", err)
	}
	if st.Split.Fallbacks == 0 {
		t.Fatalf("poisoned index produced no fallbacks: %+v", st.Split)
	}
	if st.Split.VerifyHits != 0 {
		t.Fatalf("poisoned points verified: %+v", st.Split)
	}
	for i := range want {
		if !sink.frames[i].Equal(want[i]) {
			t.Fatalf("frame %d differs under poisoned index", i)
		}
	}
}

// TestSplitFaultedGolden extends the determinism contract to split
// decoding on damaged tall-slice streams: for a fixed fault, an indexed
// split decode must agree bit-exactly — frames and ErrorStats — with the
// sequential non-split reference under every policy. (Damage changes slice bytes, so the content-keyed index simply
// stops matching damaged slices; intact ones still split.)
func TestSplitFaultedGolden(t *testing.T) {
	res := tallStream(t, 96, 64, 8, 4)
	ix := buildIndex(t, res.Data)
	specs := []string{"bitflip:4", "burst:count=2,len=24", "truncate:0.8"}
	anyDamage := false
	for _, spec := range specs {
		sp, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 2; seed++ {
			mut, _ := sp.Apply(res.Data, seed)
			for _, policy := range []Resilience{ConcealSlice, ConcealPicture, DropGOP} {
				want, wantSt, refErr := decodeResilientRun(t, mut, ModeSequential, 1, policy)
				if wantSt != nil && wantSt.Errors.Any() {
					anyDamage = true
				}
				var sink collectSink
				st, err := Decode(mut, Options{
					Mode: ModeSliceImproved, Workers: 3, Resilience: policy,
					SplitIndex: ix, SplitParts: 3, Sink: sink.add,
				})
				if (err != nil) != (refErr != nil) {
					t.Fatalf("%s seed %d %v: split err=%v, sequential err=%v", spec, seed, policy, err, refErr)
				}
				if refErr != nil {
					continue
				}
				if st.Errors != wantSt.Errors {
					t.Fatalf("%s seed %d %v: split stats %+v, sequential %+v", spec, seed, policy, st.Errors, wantSt.Errors)
				}
				if len(sink.frames) != len(want) {
					t.Fatalf("%s seed %d %v: %d frames, want %d", spec, seed, policy, len(sink.frames), len(want))
				}
				for i := range want {
					if !sink.frames[i].Equal(want[i]) {
						t.Fatalf("%s seed %d %v: frame %d differs", spec, seed, policy, i)
					}
				}
			}
		}
	}
	if !anyDamage {
		t.Fatal("no corruption produced recoverable damage; the golden test exercised nothing")
	}
}

// TestErrBadOption pins the unified option-validation surface: every
// rejected configuration wraps ErrBadOption and names the option.
func TestErrBadOption(t *testing.T) {
	res := testStream(t, 80, 48, 4, 4)
	cases := []struct {
		name string
		opt  Options
		want string // substring naming the offending option
	}{
		{"zero workers", Options{Mode: ModeSliceImproved}, "Workers"},
		{"negative workers", Options{Mode: ModeSliceImproved, Workers: -2}, "Workers"},
		{"unknown mode", Options{Mode: Mode(99), Workers: 1}, "Mode"},
		{"negative parts", Options{Mode: ModeSliceImproved, Workers: 1, SplitParts: -1}, "SplitParts"},
	}
	for _, tc := range cases {
		_, err := Decode(res.Data, tc.opt)
		if !errors.Is(err, ErrBadOption) {
			t.Fatalf("%s: Decode err %v, want ErrBadOption", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: message %q does not name %s", tc.name, err, tc.want)
		}
		if _, err := NewSession(context.Background(), tc.opt); !errors.Is(err, ErrBadOption) {
			t.Fatalf("%s: NewSession err %v, want ErrBadOption", tc.name, err)
		}
	}
	if _, err := NewSession(context.Background(), Options{Workers: 0}); !errors.Is(err, ErrBadOption) {
		t.Fatalf("NewSession(Workers 0) err %v, want ErrBadOption", err)
	}
	if _, err := Decode(res.Data, Options{Mode: ModeSliceImproved, Workers: 1}); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}
