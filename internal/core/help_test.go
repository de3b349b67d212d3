package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpeg2par/internal/encoder"
	"mpeg2par/internal/faults"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/vldsplit"
)

// helpDecode drives a Session the way the service's pool runs a task that
// took helpers: every unit is fed and run on this goroutine while a second
// goroutine, with its own Scratch, helps it until no task is left. With help
// false nobody helps — the decode a helped one must equal. prep, if not
// nil, sets the session's shed level and resilience floor before the first
// feed. A session plans no split segments, so a group that holds any fails
// the test. It returns how many tasks the helper decoded.
func helpDecode(t testing.TB, data []byte, opt Options, help bool, prep func(*Session)) (*Stats, []*frame.Frame, int, error) {
	t.Helper()
	m, err := ScanLenient(data)
	if err != nil {
		t.Fatal(err)
	}
	var sink collectSink
	opt.Sink = sink.add
	sess, err := NewSession(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(sess)
	}
	var runErr error
	var scr, hscr Scratch
	units := 0
	for gi := range m.GOPs {
		if err := sess.Reserve(context.Background()); err != nil {
			t.Fatal(err)
		}
		tk, ferr := sess.FeedShed(Unit{G: gi, Data: data, Range: m.GOPs[gi], Seq: m.Seq}, ShedNone)
		if ferr != nil {
			runErr = ferr
			break
		}
		if tk == nil {
			continue
		}
		for _, p := range tk.pics {
			if p.tasks != nil {
				t.Fatalf("group %d: a session planned split segments", gi)
			}
		}
		var wg sync.WaitGroup
		if help {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n, _ := tk.Help(1, &hscr, func() bool { return false })
				units += n
			}()
		}
		runErr = sess.Run(tk, 0, &scr)
		wg.Wait()
		if runErr != nil {
			break
		}
	}
	st, ferr := sess.Finish(runErr)
	if runErr == nil {
		runErr = ferr
	}
	return st, sink.frames, units, runErr
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
	sess, err := NewSession(context.Background(), Options{Workers: 1, Sink: func(*frame.Frame) {}})
	if err != nil {
		t.Fatal(err)
	}
	var scr Scratch
	var total int64
	for gi := range m.GOPs {
		if err := sess.Reserve(context.Background()); err != nil {
			t.Fatal(err)
		}
		tk, err := sess.FeedShed(Unit{G: gi, Data: res.Data, Range: m.GOPs[gi], Seq: m.Seq}, ShedNone)
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

// sameRun fails unless a helped decode delivered what the help-free one
// did: frames, counts and error text. A failed decode's Work is compared
// too: a FailFast picture counts the work of its tasks up to the lowest
// failing one, whoever ran them.
func sameRun(t *testing.T, name string, st *Stats, frames []*frame.Frame, err error, wantSt *Stats, want []*frame.Frame, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: helped err %v, help-free %v", name, err, wantErr)
	}
	if err != nil {
		if st.Work != wantSt.Work {
			t.Fatalf("%s: failed helped decode counted %+v, help-free %+v", name, st.Work, wantSt.Work)
		}
		return
	}
	if st.Work != wantSt.Work || st.Errors != wantSt.Errors || st.Split != wantSt.Split ||
		st.Shed != wantSt.Shed || st.Displayed != wantSt.Displayed {
		t.Fatalf("%s: helped %+v %+v %+v %d shown, help-free %+v %+v %+v %d", name,
			st.Work, st.Errors, st.Split, st.Displayed, wantSt.Work, wantSt.Errors, wantSt.Split, wantSt.Displayed)
	}
	if len(frames) != len(want) {
		t.Fatalf("%s: %d frames, want %d", name, len(frames), len(want))
	}
	for i := range want {
		if !frames[i].Equal(want[i]) {
			t.Fatalf("%s: frame %d differs", name, i)
		}
	}
}

// bandStream encodes pictures of two slices, each two macroblock rows
// tall: an index covers every slice, and a 2-worker session plans two
// tasks a picture, so there is something to help with.
func bandStream(t testing.TB) *encoder.Result {
	t.Helper()
	res, err := encoder.EncodeSequence(encoder.Config{
		Width: 96, Height: 64, Pictures: 8, GOPSize: 4, RepeatSequenceHeader: true, RowsPerSlice: 2,
	}, frame.NewSynth(96, 64))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// helpedWhole fails unless a task an idle worker helps reproduces the
// sequential oracle bit for bit and the help-free decode's counts, with no
// slice split: a service session plans tall slices whole whatever split
// source it is given.
func helpedWhole(t *testing.T, name string, data []byte, opt Options) {
	t.Helper()
	refSt, _, _, refErr := helpDecode(t, data, opt, false, nil)
	st, frames, n, err := helpDecode(t, data, opt, true, nil)
	sameRun(t, name, st, frames, err, refSt, sequentialFrames(t, data), refErr)
	if st.Split != (SplitStats{}) || st.Errors.Any() {
		t.Fatalf("%s: a clean helped decode split or accounted damage: %+v %+v", name, st.Split, st.Errors)
	}
	t.Logf("%s: the helper decoded %d tasks", name, n)
}

// TestAssistIndexedBitExact: a helped task of a session given an exact
// split index decodes its slices whole, bit-exact.
func TestAssistIndexedBitExact(t *testing.T) {
	res := bandStream(t)
	ix := buildIndex(t, res.Data)
	if ix.Slices() == 0 {
		t.Fatal("the index covers no slice")
	}
	for _, policy := range []Resilience{FailFast, ConcealSlice} {
		helpedWhole(t, policy.String(), res.Data, Options{Workers: 2, Resilience: policy, SplitIndex: ix, SplitParts: 2})
	}
}

// TestAssistPoisonedIndexFallsBack: a session never reads its split index,
// so wrong split points cost a helped task neither pixels nor a fallback.
func TestAssistPoisonedIndexFallsBack(t *testing.T) {
	res := bandStream(t)
	poisoned := poisonIndex(t, res.Data, buildIndex(t, res.Data),
		func([]vldsplit.Point, int) bool { return true }, func(p *vldsplit.Point) { p.BitOff += 7 })
	helpedWhole(t, "poisoned", res.Data, Options{Workers: 2, SplitIndex: poisoned, SplitParts: 2})
}

// TestAssistFaultedGolden: help on damaged streams must agree with the
// sequential reference — frames and ErrorStats — under every policy, and
// with the help-free decode in every count and the FailFast error text and
// Work.
func TestAssistFaultedGolden(t *testing.T) {
	res := bandStream(t)
	ix := buildIndex(t, res.Data)
	sp, err := faults.Parse("burst:count=2,len=24")
	if err != nil {
		t.Fatal(err)
	}
	anyDamage, anyFailure := false, false
	for seed := int64(1); seed <= 3; seed++ {
		mut, _ := sp.Apply(res.Data, seed)
		for _, policy := range []Resilience{FailFast, ConcealSlice, ConcealPicture} {
			opt := Options{Workers: 2, Resilience: policy, SplitIndex: ix}
			refSt, refFrames, _, refErr := helpDecode(t, mut, opt, false, nil)
			st, frames, _, err := helpDecode(t, mut, opt, true, nil)
			sameRun(t, policy.String(), st, frames, err, refSt, refFrames, refErr)
			if policy == FailFast {
				anyFailure = anyFailure || err != nil
				continue
			}
			want, wantSt, seqErr := decodeResilientRun(t, mut, ModeSequential, 1, policy)
			if (err != nil) != (seqErr != nil) {
				t.Fatalf("seed %d %v: helped err=%v, sequential err=%v", seed, policy, err, seqErr)
			}
			if err != nil {
				continue
			}
			anyDamage = anyDamage || wantSt.Errors.Any()
			if st.Errors != wantSt.Errors {
				t.Fatalf("seed %d %v: helped errors %+v, sequential %+v", seed, policy, st.Errors, wantSt.Errors)
			}
			for i := range want {
				if i >= len(frames) || !frames[i].Equal(want[i]) {
					t.Fatalf("seed %d %v: frame %d differs from sequential", seed, policy, i)
				}
			}
		}
	}
	if !anyDamage || !anyFailure {
		t.Fatalf("faults damaged a concealed stream: %v, failed a FailFast one: %v; raise the burst size", anyDamage, anyFailure)
	}
}

// TestServiceSessionShipsOnlyDecodedPixels drives sessions the way the
// service does — frames from a frame.Store, shed B pictures, then shed
// references under the degraded floor — over damaged streams, once with
// every frame the pools hand out poisoned to 0x00 and nobody helping, once
// poisoned to 0xFF and helped. The runs agree bit for bit: each pixel they
// ship was decoded, concealed or substituted, none left from a frame's
// last use.
func TestServiceSessionShipsOnlyDecodedPixels(t *testing.T) {
	res := bandStream(t)
	sp, err := faults.Parse("burst:count=2,len=24")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		shed     ShedLevel
		degraded bool
		policy   Resilience
	}{{ShedB, false, ConcealSlice}, {ShedRef, true, FailFast}} {
		prep := func(s *Session) {
			s.SetShed(c.shed)
			s.SetDegraded(c.degraded)
		}
		damaged := false
		for seed := int64(1); seed <= 3; seed++ {
			mut, _ := sp.Apply(res.Data, seed)
			name := fmt.Sprintf("%v seed %d", c.shed, seed)
			run := func(v byte, help bool) (*Stats, []*frame.Frame, int, error) {
				defer poison(v)()
				return helpDecode(t, mut, Options{Workers: 2, Resilience: c.policy, Frames: frame.NewStore()}, help, prep)
			}
			refSt, refFrames, _, refErr := run(0x00, false)
			st, frames, _, err := run(0xFF, true)
			sameRun(t, name, st, frames, err, refSt, refFrames, refErr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if st.Shed.Total() == 0 {
				t.Fatalf("%s: nothing shed: %v", name, st.Shed)
			}
			damaged = damaged || st.Errors.Any()
		}
		if !damaged {
			t.Fatalf("%v: the faults damaged no picture; raise the burst size", c.shed)
		}
	}
}

// TestHelperLeavesAfterOneUnit pins the helper's side of the offer rule:
// once leave reports true — a task has been queued — a helper returns after
// the unit it is decoding, having taken nothing more, and the owner, taking
// the rest, completes every picture bit-exact with what decoding alone
// counts.
func TestHelperLeavesAfterOneUnit(t *testing.T) {
	res := testStream(t, 288, 64, 4, 4) // wide enough for a task a row
	want := sequentialFrames(t, res.Data)
	var sink collectSink
	sess, tk := helpTask(t, res.Data, sink.add)
	p := tk.pics[0] // the intra picture: nothing to wait for
	if p.nTasks < 3 {
		t.Fatalf("picture has %d tasks, want several", p.nTasks)
	}
	var owner, helper Scratch
	asked := 0
	units, ended := tk.Help(1, &helper, func() bool { asked++; return asked > 1 })
	if units != 1 || ended || p.nextSlice != 1 || p.remaining != p.nTasks-1 {
		t.Fatalf("helper decoded %d tasks (ended %v, %d taken, %d of %d left), want one and back to dispatch",
			units, ended, p.nextSlice, p.remaining, p.nTasks)
	}
	if err := sess.Run(tk, 0, &owner); err != nil {
		t.Fatal(err)
	}
	st, err := sess.Finish(nil)
	if err != nil || st.LeakedFrameBytes != 0 {
		t.Fatalf("finish: %v, %d frame bytes leaked", err, st.LeakedFrameBytes)
	}
	if mbs := len(want) * p.params.MBWidth * p.params.MBHeight; st.Work.MBs != mbs || st.Errors.Any() {
		t.Fatalf("%d macroblocks decoded, errors %+v; want %d and none", st.Work.MBs, st.Errors, mbs)
	}
	if len(sink.frames) != len(want) {
		t.Fatalf("%d frames shown, want %d", len(sink.frames), len(want))
	}
	for i := range want {
		if !sink.frames[i].Equal(want[i]) {
			t.Fatalf("frame %d differs from the sequential oracle", i)
		}
	}
}

// TestHelperBlocksUntilWoken: a helper with nothing to take while no peer
// holds a task — it has run every task of the first picture, which only
// the owner completes, and the owner has not started — asks leave only as
// it takes and once more as it blocks — no naps, no polling — and returns
// the moment Wake is called, however long it has waited. A helper waiting
// when the owner takes the task's last unit comes back too, the task ended.
func TestHelperBlocksUntilWoken(t *testing.T) {
	sess, tk := helpTask(t, testStream(t, 96, 64, 4, 4).Data, nil)
	var scr, owner Scratch
	var asked atomic.Int32
	var quit atomic.Bool
	done := make(chan bool)
	go func() {
		_, ended := tk.Help(1, &scr, func() bool { asked.Add(1); return quit.Load() })
		done <- ended
	}()
	time.Sleep(20 * time.Millisecond) // the helper runs the first picture's tasks, then waits
	n := asked.Load()
	time.Sleep(20 * time.Millisecond)
	if d := asked.Load() - n; d > 2 {
		t.Fatalf("a waiting helper asked leave %d times in 20 ms: it polls or naps instead of blocking", d)
	}
	quit.Store(true)
	tk.Wake()
	select {
	case ended := <-done:
		if ended {
			t.Fatal("helper reports an ended task that never ran")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wake did not end the helper's wait")
	}

	go func() {
		_, ended := tk.Help(1, &scr, func() bool { return false })
		done <- ended
	}()
	if err := sess.Run(tk, 0, &owner); err != nil {
		t.Fatal(err)
	}
	select {
	case ended := <-done:
		if !ended {
			t.Fatal("helper left a task with nothing left to take without seeing its end")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the task's end did not end the helper's wait")
	}
	if st, err := sess.Finish(nil); err != nil || st.LeakedFrameBytes != 0 {
		t.Fatalf("finish: %v, %d frame bytes leaked", err, st.LeakedFrameBytes)
	}
}

// TestRunWaitsOutHelpersOfFailedSession: Run on a session that has already
// failed decodes nothing, but returns only once no helper still decodes a
// unit of the task into a frame the teardown is about to reclaim; the
// helper, back for its next unit, finds the queue failed.
func TestRunWaitsOutHelpersOfFailedSession(t *testing.T) {
	sess, tk := helpTask(t, testStream(t, 96, 64, 4, 4).Data, nil)
	var ws WorkerStats
	stay := func() bool { return false }
	p, ti, ok := tk.q.take(1, &ws, stay) // a helper holds a unit
	if !ok || ti < 0 {
		t.Fatal("the helper got no unit")
	}
	sess.Abort(errors.New("stream failed"))
	var owner Scratch
	done := make(chan error, 1)
	go func() { done <- sess.Run(tk, 0, &owner) }()
	select {
	case err := <-done:
		t.Fatalf("Run returned (%v) while a helper held a unit", err)
	case <-time.After(20 * time.Millisecond):
	}
	tk.q.finish(p, ti, nil, &tally{}, nil)
	if _, _, ok := tk.q.take(1, &ws, stay); ok {
		t.Fatal("a failed queue handed out a unit")
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run on a failed session reported no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return once the helper let go of its unit")
	}
	if st, _ := sess.Finish(nil); st.LeakedFrameBytes != 0 {
		t.Fatalf("%d frame bytes leaked", st.LeakedFrameBytes)
	}
}

// helpTask starts a 2-worker session on data and plans its first group;
// sink, if not nil, receives the frames.
func helpTask(t *testing.T, data []byte, sink func(*frame.Frame)) (*Session, *SessionTask) {
	t.Helper()
	m, err := Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	if sink == nil {
		sink = func(*frame.Frame) {}
	}
	sess, err := NewSession(context.Background(), Options{Workers: 2, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Reserve(context.Background()); err != nil {
		t.Fatal(err)
	}
	tk, err := sess.FeedShed(Unit{G: 0, Data: data, Range: m.GOPs[0], Seq: m.Seq}, ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	return sess, tk
}
