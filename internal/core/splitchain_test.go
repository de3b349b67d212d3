package core

import (
	"sync"
	"testing"

	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/vldsplit"
)

// tallIPB encodes an IBBP stream of one slice per picture.
func tallIPB(t testing.TB, w, h, pics, gop int) *encoder.Result {
	t.Helper()
	res, err := encoder.EncodeSequence(encoder.Config{
		Width: w, Height: h, Pictures: pics, GOPSize: gop, IPDistance: 3,
		RepeatSequenceHeader: true,
		RowsPerSlice:         (h + 15) / 16,
	}, frame.NewSynth(w, h))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// poisonIndex copies ix with, for every slice of the stream, the points for
// which pick reports true rewritten by mutate. The result is structurally
// valid and semantically wrong at exactly those points.
func poisonIndex(t testing.TB, data []byte, ix *vldsplit.Index, pick func(pts []vldsplit.Point, i int) bool, mutate func(*vldsplit.Point)) *vldsplit.Index {
	t.Helper()
	m, err := Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	out := vldsplit.NewIndex()
	poisoned := 0
	for gi := range m.GOPs {
		for pi := range m.GOPs[gi].Pictures {
			for _, sr := range m.GOPs[gi].Pictures[pi].Slices {
				sd := data[sr.Offset:sr.End]
				pts := ix.Lookup(sd)
				if pts == nil {
					continue
				}
				bad := append([]vldsplit.Point(nil), pts...)
				for i := range bad {
					if pick(pts, i) {
						mutate(&bad[i])
						poisoned++
					}
				}
				if err := out.Add(sd, bad); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if poisoned == 0 {
		t.Fatal("poisoned no point")
	}
	return out
}

// chainFixture plans the first picture of a tall-slice stream as three
// segment tasks in a hand-built queue, with a second picture that predicts
// from it.
type chainFixture struct {
	seq  *StreamMap
	q    *sliceQueue
	pics []*picState
	opt  Options
	scr  []sliceScratch
}

func newChainFixture(t *testing.T, data []byte, ix *vldsplit.Index, policy Resilience) *chainFixture {
	t.Helper()
	m, err := Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Mode: ModeSliceImproved, Workers: 3, Resilience: policy, SplitIndex: ix, SplitParts: 3}
	pl, err := buildPlan(data, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	pool := frame.NewPool(m.Seq.Width, m.Seq.Height)
	for _, p := range pl.pics[:2] {
		p.frame = newPlanFrame(pool, p)
	}
	if ref, dep := pl.pics[0], pl.pics[1]; len(ref.tasks) != 3 || dep.fwd != ref {
		t.Fatalf("fixture: first picture has %d tasks, second predicts from %p; want 3 segments and the first", len(ref.tasks), dep.fwd)
	}
	q := &sliceQueue{pics: pl.pics, improved: true}
	q.cond = sync.NewCond(&q.mu)
	return &chainFixture{seq: m, q: q, pics: pl.pics, opt: opt, scr: make([]sliceScratch, 3)}
}

// run executes segment task ti of the first picture as worker ti would and
// hands what it returns to the queue; it returns the addresses of the
// coverage handed over.
func (c *chainFixture) run(t *testing.T, ti int, sst *SplitStats) []int {
	t.Helper()
	var tl tally
	scr := &c.scr[ti]
	scr.taskSpans = scr.taskSpans[:0]
	if err := runPlanSliceTask(&c.seq.Seq, c.pics[0], ti, ti, c.opt, scr, &tl); err != nil {
		t.Fatalf("segment %d: %v", ti, err)
	}
	sst.Add(tl.sst)
	c.q.finish(c.pics[0], ti, scr.taskSpans, &tl, nil)
	var addrs []int
	for _, s := range scr.taskSpans {
		for a := s.first; a <= s.last; a++ {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// segReady reports whether every row of segment ti of the first picture may
// be read.
func (c *chainFixture) segReady(ti int) bool {
	r0, r1, _, ok := taskRows(c.pics[0], ti)
	if !ok {
		return false
	}
	c.q.mu.Lock()
	defer c.q.mu.Unlock()
	return rowsReady(c.pics[0], r0, r1)
}

// TestSplitChainPublishesPrefix pins the incremental verify rule: a
// segment's rows become readable only once every segment ahead of it has
// finished and chained exactly, whatever order the segments finish in —
// and then at once, without waiting for the picture.
func TestSplitChainPublishesPrefix(t *testing.T) {
	res := tallStream(t, 96, 96, 8, 4) // 6 rows: three segments of two
	ix := buildIndex(t, res.Data)
	for _, order := range [][]int{{2, 0, 1}, {2, 1, 0}, {1, 0, 2}} {
		c := newChainFixture(t, res.Data, ix, FailFast)
		if !c.pics[0].rowwise {
			t.Fatal("a split picture under FailFast must publish row by row")
		}
		var sst SplitStats
		done := map[int]bool{}
		for _, ti := range order {
			c.run(t, ti, &sst)
			done[ti] = true
			chained := true // every segment up to k has finished
			for k := 0; k < 3; k++ {
				chained = chained && done[k]
				if got := c.segReady(k); got != chained {
					t.Fatalf("order %v after segment %d: rows of segment %d readable = %v, want %v", order, ti, k, got, chained)
				}
			}
			// A task of the dependent picture is ready once the chain has
			// passed every segment its window reaches into: it starts
			// behind the wavefront, not after the picture.
			dep := c.pics[1]
			for di := 0; di < dep.nTasks; di++ {
				r0, r1, _, _ := taskRows(dep, di)
				w := picRowWindow(dep)
				want, chained := true, true
				for k := 0; k < 3; k++ {
					chained = chained && done[k]
					if s0, s1, _, _ := taskRows(c.pics[0], k); s0 <= r1+w && s1 >= r0-w {
						want = want && chained
					}
				}
				if got := ready(dep, di); got != want {
					t.Fatalf("order %v after segment %d: dependent task %d (rows %d..%d, window %d) ready = %v, want %v",
						order, ti, di, r0, r1, w, got, want)
				}
			}
		}
		if sst.VerifyHits != 1 || sst.Fallbacks != 0 || sst.SegmentsRun != 3 {
			t.Fatalf("order %v: split stats %+v, want one verified slice of three segments", order, sst)
		}
		if cov := &c.pics[0].cov; !cov.full() {
			t.Fatalf("order %v: %d macroblocks never covered", order, cov.total-cov.n)
		}
	}

	// A concealing policy may still have to drop the slice whole, so
	// there the join hands the coverage over in one piece, at the end.
	c := newChainFixture(t, res.Data, ix, ConcealSlice)
	if c.pics[0].rowwise {
		t.Fatal("a split picture under a concealing policy must publish as a whole")
	}
	var sst SplitStats
	if n := len(c.run(t, 0, &sst)) + len(c.run(t, 2, &sst)); n != 0 {
		t.Fatalf("%d macroblocks left the join before its last segment finished", n)
	}
	if n, total := len(c.run(t, 1, &sst)), c.pics[0].params.MBWidth*c.pics[0].params.MBHeight; n != total {
		t.Fatalf("the last segment handed over %d of %d macroblocks", n, total)
	}
}

// TestSplitChainMissRedecodesSuffix poisons the second of two split
// points, once in its bit offset (the segment before it runs past its
// address bound and fails) and once in its recorded state (every segment
// parses, the chain does not close). The segments ahead of the bad point
// verify and are published once, while the rest of the slice is still
// outstanding; the last segment to finish re-decodes from where the
// verified prefix stopped and covers exactly the remainder.
func TestSplitChainMissRedecodesSuffix(t *testing.T) {
	res := tallStream(t, 96, 96, 8, 4)
	ix := buildIndex(t, res.Data)
	want := sequentialFrames(t, res.Data)
	cases := []struct {
		name     string
		mutate   func(*vldsplit.Point)
		verified int // segments the chain reaches
	}{
		{"bit offset", func(p *vldsplit.Point) { p.BitOff += 7 }, 1},
		{"state", func(p *vldsplit.Point) { p.State.DCPred[0] += 8 }, 2},
	}
	for _, tc := range cases {
		bad := poisonIndex(t, res.Data, ix, func(pts []vldsplit.Point, i int) bool {
			return pts[i].BitOff == vldsplit.SelectPoints(pts, 3)[1].BitOff // the second point SplitParts: 3 selects
		}, tc.mutate)
		c := newChainFixture(t, res.Data, bad, FailFast)
		p := c.pics[0]
		mbw := p.params.MBWidth
		var sst SplitStats
		seen := map[int]int{}
		note := func(addrs []int) {
			for _, a := range addrs {
				seen[a]++
			}
		}
		note(c.run(t, 2, &sst))
		if len(seen) != 0 {
			t.Fatalf("%s: segment 2 published %d macroblocks behind an unverified chain", tc.name, len(seen))
		}
		note(c.run(t, 0, &sst))
		if len(seen) != 2*mbw || !c.segReady(0) || c.segReady(1) {
			t.Fatalf("%s: after segment 0: %d macroblocks published, rows of 0 readable %v, of 1 %v", tc.name, len(seen), c.segReady(0), c.segReady(1))
		}
		note(c.run(t, 1, &sst)) // the last to finish: settles the rest
		if len(seen) != mbw*p.params.MBHeight {
			t.Fatalf("%s: %d of %d macroblocks covered", tc.name, len(seen), mbw*p.params.MBHeight)
		}
		for a, n := range seen {
			if n != 1 {
				t.Fatalf("%s: macroblock %d handed to the queue %d times", tc.name, a, n)
			}
		}
		if got := c.pics[0].tasks[0].join.verified; got != tc.verified {
			t.Fatalf("%s: chain reached %d segments, want %d", tc.name, got, tc.verified)
		}
		if sst.VerifyHits != 0 || sst.VerifyMisses != 1 || sst.Fallbacks != 1 {
			t.Fatalf("%s: split stats %+v, want one miss and one fallback", tc.name, sst)
		}
		if !p.frame.Equal(want[p.displayIdx]) {
			t.Fatalf("%s: first picture differs from the sequential oracle", tc.name)
		}
	}
}

// TestLaterPoisonedPointBitExact is the same miss end to end, at the
// default grain, with three workers and B and P pictures reading the
// verified prefixes while the suffixes are re-decoded: frames stay the
// sequential oracle's under every policy, and the race detector stays
// silent.
func TestLaterPoisonedPointBitExact(t *testing.T) {
	res := tallIPB(t, 352, 240, 13, 13)
	want := sequentialFrames(t, res.Data)
	ix := buildIndex(t, res.Data)
	const workers = 3
	for name, mutate := range map[string]func(*vldsplit.Point){
		"bit offset": func(p *vldsplit.Point) { p.BitOff += 7 },
		"state":      func(p *vldsplit.Point) { p.State.DCPred[0] += 8 },
	} {
		bad := poisonIndex(t, res.Data, ix, func(pts []vldsplit.Point, i int) bool {
			grain := TaskGrain(22, 15, workers, true)
			sel := vldsplit.SelectPoints(pts, (15+grain-1)/grain)
			return pts[i].BitOff == sel[len(sel)/2].BitOff
		}, mutate)
		for _, policy := range []Resilience{FailFast, ConcealSlice} {
			var sink collectSink
			st, err := Decode(res.Data, Options{Mode: ModeSliceImproved, Workers: workers, Resilience: policy,
				SplitIndex: bad, Sink: sink.add})
			if err != nil {
				t.Fatalf("%s %v: %v", name, policy, err)
			}
			if st.Split.Fallbacks == 0 || st.Split.VerifyHits != 0 || st.Errors.Any() {
				t.Fatalf("%s %v: split %+v errors %+v, want every slice to miss and fall back cleanly", name, policy, st.Split, st.Errors)
			}
			if len(sink.frames) != len(want) {
				t.Fatalf("%s %v: %d frames, want %d", name, policy, len(sink.frames), len(want))
			}
			for i := range want {
				if !sink.frames[i].Equal(want[i]) {
					t.Fatalf("%s %v: frame %d differs from the sequential oracle", name, policy, i)
				}
			}
		}
	}
}

// TestSplitDefaultGrainBitExact: with no SplitParts the segments are cut at
// TaskGrain's split grain for the pool — SIF pictures on one, two and four
// workers, however many segments that makes — and the frames are the
// sequential oracle's.
func TestSplitDefaultGrainBitExact(t *testing.T) {
	res := tallIPB(t, 352, 240, 13, 13)
	want := sequentialFrames(t, res.Data)
	ix := buildIndex(t, res.Data)
	for _, workers := range []int{1, 2, 4} {
		grain := TaskGrain(22, 15, workers, true)
		segs := (15 + grain - 1) / grain
		for _, policy := range []Resilience{FailFast, ConcealSlice} {
			var sink collectSink
			st, err := Decode(res.Data, Options{Mode: ModeSliceImproved, Workers: workers, Resilience: policy,
				SplitIndex: ix, Sink: sink.add})
			if err != nil {
				t.Fatalf("%d workers %v: %v", workers, policy, err)
			}
			if st.Split.SlicesSplit != len(want) || st.Split.SegmentsRun != segs*len(want) || st.Split.VerifyHits != len(want) {
				t.Fatalf("%d workers %v: split %+v, want %d slices of %d segments, all verified", workers, policy, st.Split, len(want), segs)
			}
			for i := range want {
				if !sink.frames[i].Equal(want[i]) {
					t.Fatalf("%d workers %v: frame %d differs from the sequential oracle", workers, policy, i)
				}
			}
		}
	}
}
