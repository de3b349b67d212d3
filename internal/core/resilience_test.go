package core

import (
	"strings"
	"testing"

	"mpeg2par/internal/faults"
	"mpeg2par/internal/frame"
)

// resilientModes are the scheduling variants that must agree bit-exactly
// under every resilience policy; ModeSequential is the reference.
var resilientModes = []struct {
	mode    Mode
	workers []int
}{
	{ModeGOP, []int{1, 3}},
	{ModeSliceSimple, []int{1, 3}},
	{ModeSliceImproved, []int{1, 3}},
}

// poison makes every frame the decodes that follow take from their pools
// hold v in every sample until the decode writes it, and returns the undo.
// A decode ships only pixels it decoded, concealed or substituted, so two
// decodes poisoned with different values agree bit for bit — and one
// pixel left over from a frame's last use makes them differ.
func poison(v byte) (restore func()) {
	poolGet = func(p *frame.Pool) *frame.Frame {
		f := p.Get()
		f.Fill(v)
		return f
	}
	return func() { poolGet = (*frame.Pool).Get }
}

// decodeResilientRun decodes data under one (mode, workers, policy) and
// returns the displayed frames plus stats (nil stats on error). Its frames
// are poisoned (see poison): the sequential reference's with 0x00, every
// other run's with 0xFF.
func decodeResilientRun(t *testing.T, data []byte, mode Mode, workers int, policy Resilience) ([]*frame.Frame, *Stats, error) {
	t.Helper()
	v := byte(0xFF)
	if mode == ModeSequential {
		v = 0x00
	}
	defer poison(v)()
	var sink collectSink
	st, err := Decode(data, Options{Mode: mode, Workers: workers, Resilience: policy, Sink: sink.add})
	if err != nil {
		return nil, nil, err
	}
	return sink.frames, st, nil
}

// TestResilientGolden is the determinism contract: a fixed fault seed and
// policy must yield bit-identical frames and identical ErrorStats across
// sequential, GOP-parallel, and both slice-parallel modes — or fail in
// all of them. The reference's frames are poisoned with 0x00 and the
// others' with 0xFF, so the agreement also proves that every pixel shipped
// was written by the decode.
func TestResilientGolden(t *testing.T) {
	res := testStream(t, 96, 64, 12, 4)
	specs := []string{
		"bitflip:6",
		"burst:count=2,len=24",
		"dropslice:3",
		"droppic:1",
		"truncate:0.8",
		"gilbert:loss=0.05,burst=3,pkt=64",
	}
	anyDamage := false
	for _, spec := range specs {
		sp, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			mut, _ := sp.Apply(res.Data, seed)
			for _, policy := range []Resilience{ConcealSlice, ConcealPicture, DropGOP} {
				want, wantSt, refErr := decodeResilientRun(t, mut, ModeSequential, 1, policy)
				if wantSt != nil && wantSt.Errors.Any() {
					anyDamage = true
				}
				for _, mv := range resilientModes {
					for _, w := range mv.workers {
						got, gotSt, err := decodeResilientRun(t, mut, mv.mode, w, policy)
						if (err != nil) != (refErr != nil) {
							t.Fatalf("%s seed %d %v: %v/%d err=%v, sequential err=%v",
								spec, seed, policy, mv.mode, w, err, refErr)
						}
						if refErr != nil {
							continue
						}
						if gotSt.Errors != wantSt.Errors {
							t.Fatalf("%s seed %d %v: %v/%d stats %+v, sequential %+v",
								spec, seed, policy, mv.mode, w, gotSt.Errors, wantSt.Errors)
						}
						if len(got) != len(want) {
							t.Fatalf("%s seed %d %v: %v/%d displayed %d frames, sequential %d",
								spec, seed, policy, mv.mode, w, len(got), len(want))
						}
						for i := range want {
							if !got[i].Equal(want[i]) {
								t.Fatalf("%s seed %d %v: %v/%d frame %d differs from sequential",
									spec, seed, policy, mv.mode, w, i)
							}
						}
					}
				}
			}
		}
	}
	if !anyDamage {
		t.Fatal("no corruption produced recoverable damage; the golden test exercised nothing")
	}
}

// TestResilientCleanStream pins the no-damage behaviour: every policy and
// mode must decode an undamaged stream bit-identically to the sequential
// reference decoder, with zero error stats — concealment must cost
// nothing in fidelity when there is nothing to conceal.
func TestResilientCleanStream(t *testing.T) {
	res := testStream(t, 96, 64, 12, 4)
	want := sequentialFrames(t, res.Data)
	policies := []Resilience{FailFast, ConcealSlice, ConcealPicture, DropGOP}
	for _, policy := range policies {
		modes := []struct {
			mode    Mode
			workers int
		}{
			{ModeSequential, 1}, {ModeGOP, 3}, {ModeSliceSimple, 3}, {ModeSliceImproved, 3},
		}
		for _, mv := range modes {
			got, st, err := decodeResilientRun(t, res.Data, mv.mode, mv.workers, policy)
			if err != nil {
				t.Fatalf("%v/%v: %v", policy, mv.mode, err)
			}
			if st.Errors.Any() {
				t.Fatalf("%v/%v: clean stream reported damage: %+v", policy, mv.mode, st.Errors)
			}
			if len(got) != len(want) {
				t.Fatalf("%v/%v: %d frames, want %d", policy, mv.mode, len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%v/%v: frame %d differs from the sequential decoder", policy, mv.mode, i)
				}
			}
		}
	}
}

// TestDropGOPRemovesAnchorlessGroup destroys the I picture of the middle
// GOP: DropGOP must excise the whole group (shorter but clean output)
// while ConcealPicture substitutes through it, identically in all modes.
func TestDropGOPRemovesAnchorlessGroup(t *testing.T) {
	res := testStream(t, 80, 48, 12, 4)
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.GOPs) != 3 {
		t.Fatalf("scanned %d GOPs, want 3", len(m.GOPs))
	}
	mut := append([]byte(nil), res.Data...)
	// Overwrite the I picture's startcode type byte with a reserved code:
	// the picture vanishes and its slices become orphans.
	mut[m.GOPs[1].Pictures[0].Offset+3] = 0xFF

	want, wantSt, err := decodeResilientRun(t, mut, ModeSequential, 1, DropGOP)
	if err != nil {
		t.Fatal(err)
	}
	// The destroyed I picture vanishes from the scan entirely (its
	// startcode is gone), so the dropped group contributes its 3
	// surviving scanned pictures to the count.
	if wantSt.Errors.DroppedGOPs != 1 || wantSt.Errors.DroppedPictures != 3 {
		t.Fatalf("stats %+v, want 1 dropped GOP / 3 dropped pictures", wantSt.Errors)
	}
	if len(want) != 8 {
		t.Fatalf("displayed %d frames, want 8 after dropping one 4-picture GOP", len(want))
	}
	for _, mv := range resilientModes {
		for _, w := range mv.workers {
			got, gotSt, err := decodeResilientRun(t, mut, mv.mode, w, DropGOP)
			if err != nil {
				t.Fatalf("%v/%d: %v", mv.mode, w, err)
			}
			if gotSt.Errors != wantSt.Errors {
				t.Fatalf("%v/%d: stats %+v, sequential %+v", mv.mode, w, gotSt.Errors, wantSt.Errors)
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%v/%d: frame %d differs", mv.mode, w, i)
				}
			}
		}
	}

	// ConcealPicture keeps the damaged GOP, substituting every picture.
	sub, subSt, err := decodeResilientRun(t, mut, ModeSequential, 1, ConcealPicture)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 11 {
		t.Fatalf("ConcealPicture displayed %d frames, want 11 (the destroyed picture is invisible to the scan)", len(sub))
	}
	if subSt.Errors.DroppedPictures == 0 || subSt.Errors.DroppedGOPs != 0 {
		t.Fatalf("ConcealPicture stats %+v", subSt.Errors)
	}
}

// TestResilienceLadderOrdering checks the tier semantics on a stream with
// picture-level damage: ConcealSlice must refuse what ConcealPicture
// survives, and FailFast must refuse what ConcealSlice survives.
func TestResilienceLadderOrdering(t *testing.T) {
	res := testStream(t, 80, 48, 8, 4)
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}

	// Picture-level damage: unreadable picture header (bad coding type).
	pic := append([]byte(nil), res.Data...)
	pr := &m.GOPs[1].Pictures[1]
	pic[pr.Offset+4], pic[pr.Offset+5] = 0xFF, 0xFF
	if _, _, err := decodeResilientRun(t, pic, ModeSequential, 1, ConcealSlice); err == nil {
		t.Fatal("ConcealSlice accepted picture-level damage")
	}
	if _, st, err := decodeResilientRun(t, pic, ModeSequential, 1, ConcealPicture); err != nil || st.Errors.DroppedPictures == 0 {
		t.Fatalf("ConcealPicture: err=%v stats=%+v", err, st)
	}

	// Slice-level damage: corrupt one slice body.
	sl := append([]byte(nil), res.Data...)
	sr := pr.Slices[1]
	for i := sr.Offset + 6; i < sr.End && i < sr.Offset+14; i++ {
		sl[i] ^= 0xA5
	}
	if _, _, err := decodeResilientRun(t, sl, ModeSequential, 1, FailFast); err == nil {
		t.Fatal("FailFast accepted slice-level damage")
	}
	if _, st, err := decodeResilientRun(t, sl, ModeSequential, 1, ConcealSlice); err != nil {
		t.Fatalf("ConcealSlice rejected slice-level damage: %v", err)
	} else if !st.Errors.Any() {
		t.Fatalf("ConcealSlice reported no damage: %+v", st.Errors)
	}
}

// TestFailFastErrorContext pins the satellite fix: decode errors out of
// the GOP worker carry the GOP index and stream byte offset.
func TestFailFastErrorContext(t *testing.T) {
	res := testStream(t, 80, 48, 8, 4)
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), res.Data...)
	// Truncate mid-GOP 1 so the legacy GOP worker fails.
	mut = mut[:m.GOPs[1].Pictures[1].Offset+6]
	_, derr := Decode(mut, Options{Mode: ModeGOP, Workers: 2})
	if derr == nil {
		t.Fatal("truncated stream decoded without error")
	}
	if !strings.Contains(derr.Error(), "core: GOP") || !strings.Contains(derr.Error(), "at byte") {
		t.Fatalf("error lacks GOP/byte context: %v", derr)
	}
}

// TestParseResilienceRoundTrip covers the policy name round trip.
func TestParseResilienceRoundTrip(t *testing.T) {
	for _, p := range []Resilience{FailFast, ConcealSlice, ConcealPicture, DropGOP} {
		got, err := ParseResilience(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v err %v", p, got, err)
		}
	}
	if _, err := ParseResilience("never-heard-of-it"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestConcealedCounted: Stats.Concealed is Errors.ConcealedMBs under its
// older name, in every mode — eight dropped slices under ConcealSlice leave
// macroblocks to conceal, the same number whoever schedules them.
func TestConcealedCounted(t *testing.T) {
	res := testStream(t, 96, 64, 12, 4)
	sp, err := faults.Parse("dropslice:8")
	if err != nil {
		t.Fatal(err)
	}
	mut, _ := sp.Apply(res.Data, 1)
	want := 0
	for _, mode := range everyMode {
		_, st, err := decodeResilientRun(t, mut, mode, 3, ConcealSlice)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if st.Concealed == 0 || st.Concealed != st.Errors.ConcealedMBs {
			t.Fatalf("%v: Concealed %d, Errors.ConcealedMBs %d", mode, st.Concealed, st.Errors.ConcealedMBs)
		}
		if mode == ModeSequential {
			want = st.Concealed
		} else if st.Concealed != want {
			t.Fatalf("%v: %d macroblocks concealed, sequential %d", mode, st.Concealed, want)
		}
	}
}
