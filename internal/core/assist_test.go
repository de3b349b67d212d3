package core

import (
	"testing"

	"mpeg2par/internal/faults"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/vldsplit"
)

// assistDecode drives a Session the way the service's pool drives an
// assist-granted task: every unit is fed, marked SetAssist(parts), and
// run on one caller goroutine (the fan-out happens inside Run, exactly
// as when a pool worker executes the task with idle peers).
func assistDecode(t testing.TB, data []byte, opt Options, parts int) (*Stats, []*frame.Frame, error) {
	t.Helper()
	m, err := ScanLenient(data)
	if err != nil {
		t.Fatal(err)
	}
	var sink collectSink
	opt.Sink = sink.add
	sess, err := NewSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	var scr Scratch
	for gi := range m.GOPs {
		u := Unit{G: gi, Data: data, Range: m.GOPs[gi], Seq: m.Seq}
		tk, ferr := sess.Feed(u)
		if ferr != nil {
			runErr = ferr
			break
		}
		if tk == nil {
			continue
		}
		tk.SetAssist(parts)
		if rerr := sess.Run(tk, 0, &scr); rerr != nil {
			runErr = rerr
			break
		}
	}
	st, ferr := sess.Finish(runErr)
	if runErr == nil {
		runErr = ferr
	}
	return st, sink.frames, runErr
}

// TestSessionTaskBytesBorrowed: a unit that borrows the whole stream is
// billed its own group's bytes — SessionTask.Bytes is the cost the
// service's dispatcher schedules by, and len(Unit.Data) would bill every
// group the stream.
func TestSessionTaskBytesBorrowed(t *testing.T) {
	res := testStream(t, 96, 64, 12, 4)
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(Options{Workers: 1, Sink: func(*frame.Frame) {}})
	if err != nil {
		t.Fatal(err)
	}
	var scr Scratch
	var total int64
	for gi := range m.GOPs {
		tk, err := sess.Feed(Unit{G: gi, Data: res.Data, Range: m.GOPs[gi], Seq: m.Seq})
		if err != nil || tk == nil {
			t.Fatalf("group %d: task %v, err %v", gi, tk, err)
		}
		if want := int64(m.GOPs[gi].End - m.GOPs[gi].Offset); tk.Bytes() != want {
			t.Fatalf("group %d billed %d bytes, its range holds %d (stream %d)", gi, tk.Bytes(), want, len(res.Data))
		}
		total += tk.Bytes()
		if err := sess.Run(tk, 0, &scr); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if total > int64(len(res.Data)) {
		t.Fatalf("groups billed %d bytes of a %d-byte stream", total, len(res.Data))
	}
}

// TestAssistIndexedBitExact is the assist contract: a task fanned out
// across parallel row segments by the dispatch-time assist grant
// reproduces the sequential oracle bit for bit, on an exact index every
// segment chain verifies, and nothing is accounted as damage.
func TestAssistIndexedBitExact(t *testing.T) {
	res := tallStream(t, 96, 64, 8, 4)
	want := sequentialFrames(t, res.Data)
	ix := buildIndex(t, res.Data)

	for _, parts := range []int{2, 3} {
		for _, policy := range []Resilience{FailFast, ConcealSlice} {
			st, frames, err := assistDecode(t, res.Data, Options{
				Workers: 2, Resilience: policy, SplitIndex: ix,
			}, parts)
			if err != nil {
				t.Fatalf("parts=%d %v: %v", parts, policy, err)
			}
			if st.Split.SlicesSplit == 0 {
				t.Fatalf("parts=%d %v: assist split no slices on a tall-slice stream", parts, policy)
			}
			if st.Split.VerifyMisses != 0 || st.Split.Fallbacks != 0 {
				t.Fatalf("parts=%d %v: exact index missed verification: %+v", parts, policy, st.Split)
			}
			if st.Errors.Any() {
				t.Fatalf("parts=%d %v: clean stream accounted damage: %+v", parts, policy, st.Errors)
			}
			if len(frames) != len(want) {
				t.Fatalf("parts=%d %v: %d frames, want %d", parts, policy, len(frames), len(want))
			}
			for i := range want {
				if !frames[i].Equal(want[i]) {
					t.Fatalf("parts=%d %v: frame %d differs from sequential", parts, policy, i)
				}
			}
		}
	}
}

// TestAssistSpeculativeBitExact: assist with guessed split points (no
// index) must also never diverge — a wrong guess costs a fallback,
// never wrong pixels.
func TestAssistSpeculativeBitExact(t *testing.T) {
	res := tallStream(t, 96, 64, 8, 4)
	want := sequentialFrames(t, res.Data)
	st, frames, err := assistDecode(t, res.Data, Options{
		Workers: 2, Resilience: ConcealSlice, SpeculativeSplit: true,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors.Any() {
		t.Fatalf("clean stream accounted damage under speculative assist: %+v", st.Errors)
	}
	if len(frames) != len(want) {
		t.Fatalf("%d frames, want %d", len(frames), len(want))
	}
	for i := range want {
		if !frames[i].Equal(want[i]) {
			t.Fatalf("frame %d differs from sequential under speculative assist", i)
		}
	}
}

// TestAssistPoisonedIndexFallsBack: an assist-granted task given wrong
// split points must fail verification and re-decode sequentially —
// identical output, only time lost.
func TestAssistPoisonedIndexFallsBack(t *testing.T) {
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

	st, frames, err := assistDecode(t, res.Data, Options{
		Workers: 2, SplitIndex: poisoned,
	}, 3)
	if err != nil {
		t.Fatalf("poisoned index broke a FailFast assist decode: %v", err)
	}
	if st.Split.Fallbacks == 0 {
		t.Fatalf("poisoned index produced no fallbacks: %+v", st.Split)
	}
	if st.Split.VerifyHits != 0 {
		t.Fatalf("poisoned points verified: %+v", st.Split)
	}
	for i := range want {
		if !frames[i].Equal(want[i]) {
			t.Fatalf("frame %d differs under poisoned assist", i)
		}
	}
}

// TestAssistFaultedGolden: assist on damaged streams must agree with
// the sequential non-split reference — frames and ErrorStats — under
// every conceal policy. Damage changes slice bytes, so the
// content-keyed index stops matching damaged slices; intact ones still
// split.
func TestAssistFaultedGolden(t *testing.T) {
	res := tallStream(t, 96, 64, 8, 4)
	ix := buildIndex(t, res.Data)
	sp, err := faults.Parse("burst:count=2,len=24")
	if err != nil {
		t.Fatal(err)
	}
	anyDamage := false
	for seed := int64(1); seed <= 3; seed++ {
		mut, _ := sp.Apply(res.Data, seed)
		for _, policy := range []Resilience{ConcealSlice, ConcealPicture} {
			want, wantSt, refErr := decodeResilientRun(t, mut, ModeSequential, 1, policy)
			if wantSt != nil && wantSt.Errors.Any() {
				anyDamage = true
			}
			st, frames, err := assistDecode(t, mut, Options{
				Workers: 2, Resilience: policy, SplitIndex: ix,
			}, 3)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("seed %d %v: assist err=%v, sequential err=%v", seed, policy, err, refErr)
			}
			if err != nil {
				continue
			}
			if st.Errors != wantSt.Errors {
				t.Fatalf("seed %d %v: assist errors %+v, sequential %+v", seed, policy, st.Errors, wantSt.Errors)
			}
			if len(frames) != len(want) {
				t.Fatalf("seed %d %v: %d frames, want %d", seed, policy, len(frames), len(want))
			}
			for i := range want {
				if !frames[i].Equal(want[i]) {
					t.Fatalf("seed %d %v: frame %d differs from sequential", seed, policy, i)
				}
			}
		}
	}
	if !anyDamage {
		t.Fatal("no fault actually damaged the stream; raise the burst size")
	}
}
