package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mpeg2par/internal/decoder"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
)

// encodeStream builds a test stream once per geometry.
var streamCache sync.Map

type streamKey struct {
	w, h, pics, gop int
}

func testStream(t testing.TB, w, h, pics, gop int) *encoder.Result {
	t.Helper()
	key := streamKey{w, h, pics, gop}
	if v, ok := streamCache.Load(key); ok {
		return v.(*encoder.Result)
	}
	res, err := encoder.EncodeSequence(encoder.Config{
		Width: w, Height: h, Pictures: pics, GOPSize: gop,
		RepeatSequenceHeader: true,
	}, frame.NewSynth(w, h))
	if err != nil {
		t.Fatal(err)
	}
	streamCache.Store(key, res)
	return res
}

// everyMode is what the oracle sweeps run: each compares the engine, in
// every mode, with sequentialFrames.
var everyMode = []Mode{ModeSequential, ModeGOP, ModeSliceSimple, ModeSliceImproved}

// sequentialFrames decodes with decoder.Decoder, the independent oracle: it
// shares the syntax and reconstruction layers with the engine and nothing
// above them — no scan map, plan, queue or frame pool.
func sequentialFrames(t testing.TB, data []byte) []*frame.Frame {
	t.Helper()
	d, err := decoder.New(data)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := d.All()
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestScanStructure(t *testing.T) {
	res := testStream(t, 80, 48, 12, 4)
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.GOPs) != 3 {
		t.Fatalf("scanned %d GOPs, want 3", len(m.GOPs))
	}
	if m.TotalPictures != 12 {
		t.Fatalf("scanned %d pictures, want 12", m.TotalPictures)
	}
	for g, gop := range m.GOPs {
		if len(gop.Pictures) != 4 {
			t.Fatalf("GOP %d has %d pictures", g, len(gop.Pictures))
		}
		if gop.FirstDisplay != g*4 {
			t.Fatalf("GOP %d firstDisplay %d", g, gop.FirstDisplay)
		}
		if !gop.Closed {
			t.Fatalf("GOP %d not closed", g)
		}
		for pi, p := range gop.Pictures {
			if len(p.Slices) != 3 { // 48 px = 3 macroblock rows
				t.Fatalf("GOP %d picture %d has %d slices, want 3", g, pi, len(p.Slices))
			}
			for si, s := range p.Slices {
				if s.Row != si {
					t.Fatalf("slice row %d at position %d", s.Row, si)
				}
				if s.End <= s.Offset {
					t.Fatalf("empty slice range %+v", s)
				}
			}
		}
		// Decode-order types: I P B B.
		want := "IPBB"
		for pi, p := range gop.Pictures {
			if got := "?IPB"[int(p.Type)]; got != want[pi] {
				t.Fatalf("GOP %d picture %d type %c, want %c", g, pi, got, want[pi])
			}
		}
	}
	if m.ScanRate() <= 0 {
		t.Fatal("scan rate not measured")
	}
}

func TestScanErrors(t *testing.T) {
	if _, err := Scan([]byte{0, 0, 1, 0xB3}); err == nil {
		t.Fatal("truncated sequence header must fail")
	}
	if _, err := Scan([]byte{0xFF, 0xFF}); err == nil {
		t.Fatal("no startcodes must fail")
	}
	// Slice before any picture.
	if _, err := Scan([]byte{0, 0, 1, 0x01, 0x12, 0x34}); err == nil {
		t.Fatal("orphan slice must fail")
	}
}

// collectSink gathers deep copies of displayed frames.
type collectSink struct {
	mu     sync.Mutex
	frames []*frame.Frame
}

func (c *collectSink) add(f *frame.Frame) {
	c.mu.Lock()
	c.frames = append(c.frames, f.Clone())
	c.mu.Unlock()
}

func TestParallelMatchesSequential(t *testing.T) {
	res := testStream(t, 96, 64, 13, 13)
	want := sequentialFrames(t, res.Data)
	for _, mode := range everyMode {
		for _, workers := range []int{1, 2, 3, 7} {
			var sink collectSink
			st, err := Decode(res.Data, Options{Mode: mode, Workers: workers, Sink: sink.add})
			if err != nil {
				t.Fatalf("%v/%d: %v", mode, workers, err)
			}
			if len(sink.frames) != len(want) {
				t.Fatalf("%v/%d: %d frames, want %d", mode, workers, len(sink.frames), len(want))
			}
			for i := range want {
				if !sink.frames[i].Equal(want[i]) {
					t.Fatalf("%v/%d: frame %d differs from sequential decode", mode, workers, i)
				}
				if sink.frames[i].PictureType != want[i].PictureType {
					t.Fatalf("%v/%d: frame %d type %c vs %c", mode, workers,
						i, sink.frames[i].PictureType, want[i].PictureType)
				}
			}
			if st.Displayed != len(want) {
				t.Fatalf("%v/%d: displayed %d", mode, workers, st.Displayed)
			}
		}
	}
}

func TestParallelMultiGOP(t *testing.T) {
	res := testStream(t, 80, 48, 16, 4)
	want := sequentialFrames(t, res.Data)
	for _, mode := range everyMode {
		var sink collectSink
		_, err := Decode(res.Data, Options{Mode: mode, Workers: 4, Sink: sink.add})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for i := range want {
			if !sink.frames[i].Equal(want[i]) {
				t.Fatalf("%v: frame %d differs", mode, i)
			}
		}
	}
}

func TestWorkerStatsAccounting(t *testing.T) {
	res := testStream(t, 96, 64, 13, 13)
	st, err := Decode(res.Data, Options{Mode: ModeSliceImproved, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.WorkerStats) != 3 {
		t.Fatalf("%d worker stats", len(st.WorkerStats))
	}
	totalTasks := 0
	for _, ws := range st.WorkerStats {
		totalTasks += ws.Tasks
	}
	if totalTasks != 13*4 { // 64px high → 4 slices per picture
		t.Fatalf("%d slice tasks, want %d", totalTasks, 13*4)
	}
	if st.Work.MBs != 13*6*4 {
		t.Fatalf("Work.MBs = %d", st.Work.MBs)
	}
}

func TestFrameMemoryBounded(t *testing.T) {
	// Slice-mode live frame memory stays at a handful of pictures no
	// matter the GOP size, and with in-order execution (which is what a
	// single-CPU host gives the goroutine engine) the GOP mode needs only
	// its reference window too. The worker-count-dependent growth of the
	// GOP mode under real concurrency is reproduced by the deterministic
	// simulator (see internal/simsched), not this wall-clock engine.
	res := testStream(t, 96, 64, 24, 4)
	frameBytes := int64(frame.New(96, 64).Bytes())
	// The live set is the reference window plus the pipeline window the
	// queue's flow control admits (workers+4 pictures) — never the GOP
	// size, which is the paper's claim.
	bound := func(workers int) int64 { return int64(workers+4+4) * frameBytes }
	for _, mode := range []Mode{ModeSliceSimple, ModeSliceImproved} {
		for _, workers := range []int{1, 6} {
			st, err := Decode(res.Data, Options{Mode: mode, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if st.PeakFrameBytes > bound(workers) {
				t.Errorf("%v/%d: peak %d bytes > %d", mode, workers, st.PeakFrameBytes, bound(workers))
			}
		}
	}
	// Larger GOPs must not increase the slice decoder's footprint: a
	// single 31-picture GOP stays within the same worker-scaled bound.
	res31 := testStream(t, 96, 64, 31, 31)
	st31, err := Decode(res31.Data, Options{Mode: ModeSliceImproved, Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if st31.PeakFrameBytes > bound(6) {
		t.Errorf("slice peak grows with GOP size: %d bytes > %d", st31.PeakFrameBytes, bound(6))
	}
}

func TestProfileCollection(t *testing.T) {
	res := testStream(t, 96, 64, 13, 13)
	st, err := Decode(res.Data, Options{Mode: ModeGOP, Workers: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.GOPCosts) != 1 || st.GOPCosts[0].Cost <= 0 {
		t.Fatalf("GOP profile missing: %+v", st.GOPCosts)
	}
	var inPictures time.Duration
	for _, c := range st.GOPCosts[0].Pictures {
		if c <= 0 {
			t.Fatal("unmeasured picture cost")
		}
		inPictures += c
	}
	if n := len(st.GOPCosts[0].Pictures); n != 13 || inPictures > st.GOPCosts[0].Cost {
		t.Fatalf("GOP task of %v split into %d pictures of %v together", st.GOPCosts[0].Cost, n, inPictures)
	}
	st2, err := Decode(res.Data, Options{Mode: ModeSliceImproved, Workers: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.SliceProf) != 13 {
		t.Fatalf("%d picture profiles", len(st2.SliceProf))
	}
	refs := 0
	for _, p := range st2.SliceProf {
		if len(p.SliceCosts) != 4 {
			t.Fatalf("picture has %d slice costs", len(p.SliceCosts))
		}
		for _, c := range p.SliceCosts {
			if c <= 0 {
				t.Fatal("unmeasured slice cost")
			}
		}
		if p.Ref {
			refs++
		}
	}
	if refs != 5 { // I + 4 P in a 13-picture M=3 GOP
		t.Fatalf("%d reference pictures profiled, want 5", refs)
	}
}

// TestProfileSliceGrain: the slice profile stays at the paper's grain — one
// cost per slice — whatever the run fused into a task: at SD a task is eight
// rows on one worker and two on four. The costs are timed inside the tasks,
// so together they cannot exceed what the workers were busy for. A split
// slice is profiled per segment, SplitParts of them.
func TestProfileSliceGrain(t *testing.T) {
	sd := testStream(t, 704, 480, 4, 4)
	m, err := Scan(sd.Data)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		st, err := DecodeScanned(sd.Data, m, Options{Mode: ModeSliceImproved, Workers: workers, Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		var busy, costs time.Duration
		tasks := 0
		for _, ws := range st.WorkerStats {
			busy += ws.Busy
			tasks += ws.Tasks
		}
		if grain := TaskGrain(30, workers); tasks != 4*(30/grain+min(30%grain, 1)) {
			t.Fatalf("%d workers: %d tasks over 4 pictures at %d rows a task", workers, tasks, grain)
		}
		if len(st.SliceProf) != 4 {
			t.Fatalf("%d workers: %d picture profiles, want 4", workers, len(st.SliceProf))
		}
		for i, p := range st.SliceProf {
			if want := len(m.GOPs[0].Pictures[i].Slices); len(p.SliceCosts) != want || want != 30 {
				t.Fatalf("%d workers: picture %d has %d slice costs for %d slices", workers, i, len(p.SliceCosts), want)
			}
			for _, c := range p.SliceCosts {
				if c <= 0 {
					t.Fatalf("%d workers: picture %d has an unmeasured slice", workers, i)
				}
				costs += c
			}
		}
		if costs > busy {
			t.Fatalf("%d workers: slices cost %v together, the workers were busy %v", workers, costs, busy)
		}
	}

	tall := tallStream(t, 96, 80, 4, 4) // one five-row slice a picture
	st, err := Decode(tall.Data, Options{Mode: ModeSliceImproved, Workers: 1, Profile: true,
		SplitIndex: buildIndex(t, tall.Data), SplitParts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Split.SlicesSplit != 4 || st.Split.VerifyHits != 4 {
		t.Fatalf("split stats %+v, want all 4 slices split and verified", st.Split)
	}
	for i, p := range st.SliceProf {
		if len(p.SliceCosts) != 3 {
			t.Fatalf("split picture %d has %d costs, want one per segment of SplitParts 3", i, len(p.SliceCosts))
		}
		for _, c := range p.SliceCosts {
			if c <= 0 {
				t.Fatalf("split picture %d has an unmeasured segment", i)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	res := testStream(t, 80, 48, 4, 4)
	if _, err := Decode(res.Data, Options{Mode: ModeGOP, Workers: 0}); err == nil {
		t.Fatal("zero workers must fail")
	}
	// A bad option is reported as such even when the stream would not scan.
	for _, opt := range []Options{{Mode: ModeGOP}, {Mode: ModeGOP, Workers: 1, SplitParts: -1}, {Mode: Mode(99), Workers: 1}} {
		if _, err := Decode([]byte("not a stream"), opt); !errors.Is(err, ErrBadOption) {
			t.Fatalf("%+v on an unscannable input: %v, want ErrBadOption", opt, err)
		}
	}
	if _, err := Decode(nil, Options{Mode: ModeGOP, Workers: 1}); err == nil {
		t.Fatal("empty stream must fail")
	}
	// Corrupt a slice body: the run must fail, not hang.
	mut := append([]byte(nil), res.Data...)
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	sl := m.GOPs[0].Pictures[0].Slices[1]
	for i := sl.Offset + 5; i < sl.End && i < sl.Offset+12; i++ {
		mut[i] = 0xFF
	}
	for _, mode := range everyMode {
		if _, err := Decode(mut, Options{Mode: mode, Workers: 3}); err == nil {
			t.Fatalf("%v: corrupted slice must fail", mode)
		}
	}
}

func TestConcealedParallelDecode(t *testing.T) {
	// A damaged slice must not kill the parallel decode when concealment
	// is enabled — every mode recovers and reports what it patched.
	res := testStream(t, 96, 64, 8, 8)
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), res.Data...)
	sl := m.GOPs[0].Pictures[1].Slices[1] // a P-picture slice
	for i := sl.Offset + 6; i < sl.Offset+14 && i < sl.End; i++ {
		mut[i] = 0
	}
	for _, mode := range everyMode {
		// Without concealment: error.
		if _, err := Decode(mut, Options{Mode: mode, Workers: 2}); err == nil {
			t.Fatalf("%v: corruption must fail without concealment", mode)
		}
		// With concealment: full output.
		var sink collectSink
		st, err := Decode(mut, Options{Mode: mode, Workers: 2, Resilience: ConcealSlice, Sink: sink.add})
		if err != nil {
			t.Fatalf("%v: concealed decode failed: %v", mode, err)
		}
		if st.Displayed != 8 || len(sink.frames) != 8 {
			t.Fatalf("%v: displayed %d", mode, st.Displayed)
		}
		if st.Concealed == 0 {
			t.Fatalf("%v: nothing concealed", mode)
		}
	}
}

func TestParallelDecodeWithoutGOPHeaders(t *testing.T) {
	// MPEG-2 makes the GOP layer optional (the paper's footnote 9): the
	// scan process must synthesize groups from the repeated sequence
	// headers and every parallel mode must still decode correctly.
	res, err := encoder.EncodeSequence(encoder.Config{
		Width: 80, Height: 48, Pictures: 12, GOPSize: 4, OmitGOPHeaders: true,
	}, frame.NewSynth(80, 48))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.GOPs) != 3 {
		t.Fatalf("scan synthesized %d groups, want 3", len(m.GOPs))
	}
	want := sequentialFrames(t, res.Data)
	for _, mode := range everyMode {
		var sink collectSink
		if _, err := Decode(res.Data, Options{Mode: mode, Workers: 3, Sink: sink.add}); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(sink.frames) != len(want) {
			t.Fatalf("%v: %d frames", mode, len(sink.frames))
		}
		for i := range want {
			if !sink.frames[i].Equal(want[i]) {
				t.Fatalf("%v: frame %d differs", mode, i)
			}
		}
	}
}

func TestParallelEquivalenceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := testStream(t, 80, 48, 8, 8)
	want := sequentialFrames(t, res.Data)
	f := func(modeRaw, workersRaw uint8) bool {
		mode := Mode(modeRaw % 3)
		workers := int(workersRaw%8) + 1
		var sink collectSink
		_, err := Decode(res.Data, Options{Mode: mode, Workers: workers, Sink: sink.add})
		if err != nil {
			t.Logf("%v/%d: %v", mode, workers, err)
			return false
		}
		if len(sink.frames) != len(want) {
			return false
		}
		for i := range want {
			if !sink.frames[i].Equal(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDecodeGOP4Workers(b *testing.B) {
	res := testStream(b, 176, 120, 8, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(res.Data, Options{Mode: ModeGOP, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSliceImproved4Workers(b *testing.B) {
	res := testStream(b, 176, 120, 8, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(res.Data, Options{Mode: ModeSliceImproved, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestConcurrentIndependentDecodes(t *testing.T) {
	// Several parallel decodes of different streams at once must not
	// interfere (a video server decodes many channels in one process).
	resA := testStream(t, 96, 64, 8, 4)
	resB := testStream(t, 80, 48, 12, 4)
	wantA := sequentialFrames(t, resA.Data)
	wantB := sequentialFrames(t, resB.Data)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			var sink collectSink
			if _, err := Decode(resA.Data, Options{Mode: ModeSliceImproved, Workers: 2, Sink: sink.add}); err != nil {
				errs <- err
				return
			}
			for i := range wantA {
				if !sink.frames[i].Equal(wantA[i]) {
					errs <- fmt.Errorf("stream A frame %d differs", i)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			var sink collectSink
			if _, err := Decode(resB.Data, Options{Mode: ModeGOP, Workers: 2, Sink: sink.add}); err != nil {
				errs <- err
				return
			}
			for i := range wantB {
				if !sink.frames[i].Equal(wantB[i]) {
					errs <- fmt.Errorf("stream B frame %d differs", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestParallelGoldenWorkerSweep is the bit-exactness acceptance sweep for
// the optimized decode kernels: every parallel mode at workers 1, 2, 4
// and 8 must match the sequential decoder frame-for-frame on a SIF-sized
// multi-GOP stream (the perf harness's reference geometry, scaled down in
// picture count to stay test-speed).
func TestParallelGoldenWorkerSweep(t *testing.T) {
	res := testStream(t, 352, 240, 26, 13)
	want := sequentialFrames(t, res.Data)
	for _, mode := range everyMode {
		for _, workers := range []int{1, 2, 4, 8} {
			var sink collectSink
			_, err := Decode(res.Data, Options{Mode: mode, Workers: workers, Sink: sink.add})
			if err != nil {
				t.Fatalf("%v/%d: %v", mode, workers, err)
			}
			if len(sink.frames) != len(want) {
				t.Fatalf("%v/%d: %d frames, want %d", mode, workers, len(sink.frames), len(want))
			}
			for i := range want {
				if !sink.frames[i].Equal(want[i]) {
					t.Fatalf("%v/%d: frame %d differs from sequential decode", mode, workers, i)
				}
			}
		}
	}
}

// TestConcealPoolCrossGOPSafety pins the conceal/pool interaction: when a
// damaged slice deep in the stream is concealed, recycled frame buffers
// (which by then carry pixels from earlier GOPs) must not leak stale
// content into the output. The sequential decoder allocates every frame
// fresh, so byte-exact agreement with it proves the pooled paths are
// clean across GOP boundaries.
func TestConcealPoolCrossGOPSafety(t *testing.T) {
	res := testStream(t, 96, 64, 12, 4)
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), res.Data...)
	// Damage P-picture slices in the first and the last GOP so concealment
	// runs both before and after the pool starts recycling buffers.
	for _, g := range []int{0, 2} {
		sl := m.GOPs[g].Pictures[1].Slices[1]
		for i := sl.Offset + 6; i < sl.Offset+14 && i < sl.End; i++ {
			mut[i] = 0
		}
	}

	d, err := decoder.New(mut)
	if err != nil {
		t.Fatal(err)
	}
	d.Conceal = true
	want, err := d.All()
	if err != nil {
		t.Fatalf("sequential concealed decode: %v", err)
	}
	if d.Concealed == 0 {
		t.Fatal("corruption did not trigger concealment")
	}

	for _, mode := range everyMode {
		for _, workers := range []int{1, 2, 4} {
			var sink collectSink
			st, err := Decode(mut, Options{Mode: mode, Workers: workers, Resilience: ConcealSlice, Sink: sink.add})
			if err != nil {
				t.Fatalf("%v/%d: %v", mode, workers, err)
			}
			if st.Concealed == 0 {
				t.Fatalf("%v/%d: nothing concealed", mode, workers)
			}
			if len(sink.frames) != len(want) {
				t.Fatalf("%v/%d: %d frames, want %d", mode, workers, len(sink.frames), len(want))
			}
			for i := range want {
				if !sink.frames[i].Equal(want[i]) {
					t.Fatalf("%v/%d: concealed frame %d differs from sequential decode", mode, workers, i)
				}
			}
		}
	}
}
