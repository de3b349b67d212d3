package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"mpeg2par/internal/frame"
	"mpeg2par/internal/motion"
	"mpeg2par/internal/mpeg2"
)

// paintRows gives every sample of macroblock row r (16 luma lines, 8
// chroma lines) the value 255 where mark(r) holds and 0 elsewhere.
func paintRows(f *frame.Frame, mark func(r int) bool) {
	for r := 0; r < f.CodedH/16; r++ {
		v := uint8(0)
		if mark(r) {
			v = 255
		}
		for y := r * 16; y < (r+1)*16; y++ {
			row := f.Y[y*f.YStride : y*f.YStride+f.CodedW]
			for x := range row {
				row[x] = v
			}
		}
		for y := r * 8; y < (r+1)*8; y++ {
			cb := f.Cb[y*f.CStride : y*f.CStride+f.CodedW/2]
			cr := f.Cr[y*f.CStride : y*f.CStride+f.CodedW/2]
			for x := range cb {
				cb[x], cr[x] = v, v
			}
		}
	}
}

func predZero(p *motion.MBPred) bool {
	return p.Y == [256]uint8{} && p.Cb == [64]uint8{} && p.Cr == [64]uint8{}
}

// TestRefRowWindowExhaustive checks refRowWindow against the rows motion
// compensation really reads: for every legal f_code, every vertical
// vector the header decode can produce, frame and field prediction, and
// macroblock rows at the top edge, the bottom edge and clear of both. A
// reference whose rows outside the window are white and inside black must
// predict pure black whatever the vector (nothing outside the window is
// read, the edge clamp included), and a reference with only the window's
// outermost row white must predict something non-black for some vector
// (the window is no wider than the reach).
func TestRefRowWindowExhaustive(t *testing.T) {
	var pred motion.MBPred
	for _, field := range []bool{false, true} {
		for fcode := 1; fcode <= 9; fcode++ {
			w := refRowWindow(fcode, field)
			f := 1 << uint(fcode-1)
			mbh := 2*w + 3
			ref := frame.New(32, mbh*16)
			predict := func(mby, vx, vy int, sel [2]bool) {
				mv := motion.MV{X: vx, Y: vy}
				if field {
					motion.PredictMBField(&pred, ref, 0, mby, sel, mv, mv)
				} else {
					motion.PredictMB(&pred, ref, 0, mby, mv)
				}
			}
			sels := [][2]bool{{false, true}}
			if field {
				sels = append(sels, [2]bool{true, false})
			}
			// anyVector reports whether some vector reads a white row.
			anyVector := func(mby int) bool {
				for vy := -16 * f; vy < 16*f; vy++ {
					for _, sel := range sels {
						if predict(mby, 0, vy, sel); !predZero(&pred) {
							return true
						}
					}
				}
				return false
			}
			for _, mby := range []int{0, 1, w + 1, mbh - 2, mbh - 1} {
				lo, hi := max(mby-w, 0), min(mby+w, mbh-1)
				paintRows(ref, func(r int) bool { return r < lo || r > hi })
				for vy := -16 * f; vy < 16*f; vy++ {
					for vx := 0; vx < 2; vx++ {
						for _, sel := range sels {
							if predict(mby, vx, vy, sel); !predZero(&pred) {
								t.Fatalf("f_code %d field %v: row %d vector (%d,%d) sel %v reads outside rows [%d,%d]",
									fcode, field, mby, vx, vy, sel, lo, hi)
							}
						}
					}
				}
				for _, edge := range []int{mby - w, mby + w} {
					if edge < 0 || edge >= mbh {
						continue // clipped by the picture: nothing to reach
					}
					paintRows(ref, func(r int) bool { return r == edge })
					if !anyVector(mby) {
						t.Fatalf("f_code %d field %v: no vector takes row %d to row %d; the window is too wide",
							fcode, field, mby, edge)
					}
				}
			}
		}
	}
	for _, fcode := range []int{-1, 0, 10, 15} {
		if w := refRowWindow(fcode, false); w != -1 {
			t.Fatalf("refRowWindow(%d) = %d, want -1 (whole frame)", fcode, w)
		}
	}
}

// windowTestPic builds a decodable picState of mbw×mbh macroblocks with
// one slice per row, f_code 1 in both directions (a one-row window).
func windowTestPic(mbw, mbh int, fwd, bwd *picState, deps int32) *picState {
	pr := &PictureRange{}
	var groups [][]int
	for r := 0; r < mbh; r++ {
		pr.Slices = append(pr.Slices, SliceRange{Row: r})
		groups = append(groups, []int{r})
	}
	p := &picState{
		rng: pr, fwd: fwd, bwd: bwd, deps: deps, groups: groups,
		nTasks: mbh, remaining: mbh, rowwise: true,
		params: mpeg2.PictureParams{MBWidth: mbw, MBHeight: mbh,
			FCode: [2][2]int{{1, 1}, {1, 1}}, FramePredFrameDCT: true},
	}
	p.hdr.Type = 1
	p.bounds = sliceSpanBounds(pr.Slices, &p.params)
	return p
}

// groupedTestPic builds a plan-path picState of mbw×mbh macroblocks —
// perRow(r) slices starting on row r, in row order, grouped into tasks by
// buildRowGroups for the given pool size — with no references and the
// f_code 1 window of windowTestPic.
func groupedTestPic(mbw, mbh, workers int, perRow func(r int) int) *picState {
	pr := &PictureRange{}
	for r := 0; r < mbh; r++ {
		for n := perRow(r); n > 0; n-- {
			pr.Slices = append(pr.Slices, SliceRange{Row: r})
		}
	}
	p := windowTestPic(mbw, mbh, nil, nil, 0)
	p.rng = pr
	p.bounds = sliceSpanBounds(pr.Slices, &p.params)
	p.groups = buildRowGroups(pr.Slices, p.bounds, &p.params, workers)
	p.minRow = minSliceRow(pr.Slices)
	p.nTasks, p.remaining = len(p.groups), len(p.groups)
	return p
}

// rowAddrs is the span of row r's macroblocks.
func rowAddrs(p *picState, r int) []mbSpan {
	mbw := p.params.MBWidth
	return []mbSpan{{r * mbw, r*mbw + mbw - 1}}
}

// TestSliceQueueRowWindow drives the queue white-box through the
// situation the readiness rule exists for: reference picture P has one
// task outstanding. take must hand out exactly the B tasks whose window
// misses that row, never one inside it, then move on to the next group's
// intra picture — unless the pipeline depth forbids it — and release the
// held-back B tasks the moment P's last row is published. The second half
// does the same with fused tasks: one that spans several rows waits for
// the reference rows around its last row, not only its first.
func TestSliceQueueRowWindow(t *testing.T) {
	const mbw, mbh, held = 22, 12, 5 // SIF width: TaskGrain's floor is one row
	for _, depth := range []int{6, 2} {
		i0 := windowTestPic(mbw, mbh, nil, nil, 2)
		p1 := windowTestPic(mbw, mbh, i0, nil, 1)
		pics := []*picState{i0, p1,
			windowTestPic(mbw, mbh, i0, p1, 0),   // B2 <- I0, P1
			windowTestPic(mbw, mbh, nil, nil, 0), // I3, next group
		}
		// The queue forgets I0 when it ships; pics keeps all four.
		q := &sliceQueue{pics: slices.Clone(pics), improved: true, pool: frame.NewPool(mbw*16, mbh*16),
			depth: depth, closed: true, workers: 1}
		q.cond = sync.NewCond(&q.mu)
		runnable := func() bool {
			q.mu.Lock()
			defer q.mu.Unlock()
			for q.issueIdx < len(q.pics) && q.pics[q.issueIdx].nextSlice >= q.pics[q.issueIdx].nTasks {
				q.issueIdx++
			}
			return q.issueIdx < len(q.pics) && q.next(0) != nil
		}
		take := func(want *picState) int {
			t.Helper()
			if !runnable() {
				t.Fatalf("depth %d: take would block; want a task of picture %d", depth, slices.Index(pics, want))
			}
			var ws WorkerStats
			p, ti, ok := q.take(0, &ws, nil)
			if !ok || p != want || ws.Wait != 0 {
				t.Fatalf("depth %d: take = picture %d ok %v wait %v; want picture %d without blocking",
					depth, slices.Index(pics, p), ok, ws.Wait, slices.Index(pics, want))
			}
			return p.rng.Slices[ti].Row
		}

		// I0 decodes completely; P1 is handed out completely and finishes
		// every row but one.
		for r := 0; r < mbh; r++ {
			row := take(pics[0])
			if q.finish(pics[0], 0, rowAddrs(pics[0], row), &tally{}, nil) {
				q.completePic(pics[0], ErrorStats{})
			}
		}
		for r := 0; r < mbh; r++ {
			if row := take(pics[1]); row != held {
				q.finish(pics[1], 0, rowAddrs(pics[1], row), &tally{}, nil)
			}
		}
		// The depth window advances when I0 is handed to the display, not
		// when it completes.
		if depth == 2 && runnable() {
			t.Fatal("depth 2: B2 issued a task while I0 was complete but not yet shipped")
		}
		q.shipPic(pics[0])
		if len(q.pics) != 3 || q.pics[0] != pics[1] {
			t.Fatalf("depth %d: the queue holds %d pictures after I0 shipped, want P1, B2, I3", depth, len(q.pics))
		}

		// B2 reads P1 through a one-row window: rows held-1..held+1 wait.
		got := map[int]bool{}
		for i := 0; i < mbh-3; i++ {
			got[take(pics[2])] = true
		}
		for r := held - 1; r <= held+1; r++ {
			if got[r] {
				t.Fatalf("depth %d: B row %d handed out while P row %d is unpublished", depth, r, held)
			}
		}
		if depth > 2 {
			// The next group's intra picture depends on nothing.
			take(pics[3])
		} else if runnable() {
			// pics[3] may not start before pics[1] completes.
			t.Fatalf("depth %d: a task ran past the pipeline depth", depth)
		}

		// Publishing P's last row releases the three held-back B tasks.
		if !q.finish(pics[1], 0, rowAddrs(pics[1], held), &tally{}, nil) {
			t.Fatal("P1 not done after its last task")
		}
		for i := 0; i < 3; i++ {
			if r := take(pics[2]); r < held-1 || r > held+1 {
				t.Fatalf("depth %d: after publication got B row %d, want %d..%d", depth, r, held-1, held+1)
			}
		}
	}

	// Fused tasks. The reference decodes a row per task (a pool of many
	// workers would plan it so), the dependent picture three rows per task
	// (12 rows, one worker): the task of rows 3..5 reads reference rows
	// 2..6 through the one-row window, so it must wait for row 6 — the row
	// below its last — and for row 2 above its first, and for nothing else.
	for _, late := range []int{2, 6} {
		ref := windowTestPic(mbw, mbh, nil, nil, 1)
		dep := groupedTestPic(mbw, mbh, 1, func(int) int { return 1 })
		dep.fwd = ref
		if len(dep.groups) != 4 || len(dep.groups[1]) != 3 {
			t.Fatalf("dependent picture planned as %v, want four tasks of three rows", dep.groups)
		}
		q := &sliceQueue{pics: []*picState{ref, dep}, improved: true}
		q.cond = sync.NewCond(&q.mu)
		for r := 0; r < mbh; r++ {
			if r != late && r != mbh-1 {
				q.finish(ref, 0, rowAddrs(ref, r), &tally{}, nil)
			}
		}
		// Row mbh-1 stays out too, so the reference is not complete and
		// the last task (rows 9..11) is never ready.
		for ti, want := range []bool{late != 2, false, late != 6, false} {
			if got := ready(dep, ti); got != want {
				t.Fatalf("reference row %d unpublished: task %d (rows %d..%d) ready = %v, want %v",
					late, ti, 3*ti, 3*ti+2, got, want)
			}
		}
		q.finish(ref, 0, rowAddrs(ref, late), &tally{}, nil)
		if !ready(dep, 1) {
			t.Fatalf("task of rows 3..5 not ready once reference row %d is published", late)
		}
	}
}

// TestSliceQueueLatePublication pins the pictures whose rows must not be
// read before completePic: a picture that is not rowwise (shared rows or
// split slices), and rows a damaged task left uncovered.
func TestSliceQueueLatePublication(t *testing.T) {
	const mbw, mbh = 2, 4
	ref := windowTestPic(mbw, mbh, nil, nil, 1)
	dep := windowTestPic(mbw, mbh, ref, nil, 0)
	q := &sliceQueue{pics: []*picState{ref, dep}, improved: true}
	q.cond = sync.NewCond(&q.mu)

	ref.rowwise = false
	for r := 0; r < mbh; r++ {
		q.finish(ref, 0, rowAddrs(ref, r), &tally{}, nil)
	}
	if ready(dep, 0) {
		t.Fatal("rows of a picture that publishes as a whole were readable before completePic")
	}
	q.completePic(ref, ErrorStats{})
	if !ready(dep, 0) {
		t.Fatal("task not ready although its reference is complete")
	}

	ref = windowTestPic(mbw, mbh, nil, nil, 1)
	q.pics[0], dep.fwd = ref, ref
	q.finish(ref, 0, rowAddrs(ref, 0), &tally{}, nil)
	q.finish(ref, 0, []mbSpan{{mbw, mbw}}, &tally{}, nil) // a damaged task: part of row 1
	q.finish(ref, 0, rowAddrs(ref, 2), &tally{}, nil)
	if ready(dep, 0) || ready(dep, 1) || ready(dep, 2) {
		t.Fatal("a task whose window holds a half-covered row was ready")
	}
	q.finish(ref, 0, rowAddrs(ref, 3), &tally{}, nil)
	if !ready(dep, 3) {
		t.Fatal("row 3 (window 2..3, both covered) should be ready")
	}
	if ref.cov.n != mbw*mbh-1 || ref.cov.has(1*mbw+1) {
		t.Fatalf("covered %d of %d, want all but the second macroblock of row 1", ref.cov.n, mbw*mbh)
	}
}

// TestCoverageAllocs pins the steady-state allocations of the coverage
// bookkeeping: none per picture in a GOP task's queue (the simple variant
// hands one buffer from picture to picture), one per picture in the
// improved slice queue (bitmap and row counts share a buffer).
func TestCoverageAllocs(t *testing.T) {
	res := testStream(t, 96, 64, 12, 12)
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(Options{Workers: 2, Sink: func(*frame.Frame) {}})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := sess.FeedShed(Unit{G: 0, Data: res.Data, Range: m.GOPs[0], Seq: m.Seq}, ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	var scr Scratch
	var ws WorkerStats
	// Run's owner loop over the group, its queue and pictures put back as
	// planned before each pass; the frames come from the pool's free list.
	decodeGroup := func() {
		for _, p := range tk.pics {
			p.frame, p.nextSlice, p.remaining, p.complete, p.shipped = nil, 0, p.nTasks, false, false
		}
		tk.q.pics, tk.q.issueIdx = append(tk.q.pics[:0], tk.pics...), 0
		sess.disp.next = 0
		if err := sess.drive(&tk.q, 0, &ws, sess.opt, &scr.s, nil, func(*picState, int, time.Time) {}); err != nil {
			t.Fatal(err)
		}
	}
	decodeGroup() // warm-up grows the scratch and fills the pool
	if allocs := testing.AllocsPerRun(5, decodeGroup); allocs != 0 {
		t.Fatalf("a GOP task's queue allocates %.1f times per %d pictures, want 0", allocs, len(tk.pics))
	}

	p := windowTestPic(6, 4, nil, nil, 1)
	q := &sliceQueue{pics: []*picState{p}, improved: true}
	q.cond = sync.NewCond(&q.mu)
	rows := [][]mbSpan{rowAddrs(p, 0), rowAddrs(p, 1), rowAddrs(p, 2), rowAddrs(p, 3)}
	var tl tally
	onePicture := func() {
		p.cov, p.rowCov, p.remaining = coverage{}, nil, len(rows)
		for _, addrs := range rows {
			q.finish(p, 0, addrs, &tl, nil)
		}
	}
	if allocs := testing.AllocsPerRun(20, onePicture); allocs != 1 {
		t.Fatalf("sliceQueue.finish allocates %.1f times per picture, want 1", allocs)
	}
}

// TestCoverageAddRange: marking a range marks exactly its macroblocks that
// lie inside the picture, counts only the new ones, and agrees with a
// macroblock-at-a-time reference across word boundaries.
func TestCoverageAddRange(t *testing.T) {
	const total = 200
	var c coverage
	c.reset(total)
	ref := make([]bool, total)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		lo := rng.Intn(total+20) - 10
		hi := lo + rng.Intn(80) - 5
		want := 0
		for a := max(lo, 0); a <= min(hi, total-1); a++ {
			if !ref[a] {
				ref[a] = true
				want++
			}
		}
		if got := c.addRange(lo, hi); got != want {
			t.Fatalf("addRange(%d, %d) = %d new, want %d", lo, hi, got, want)
		}
		n := 0
		for a, on := range ref {
			if c.has(a) != on {
				t.Fatalf("after addRange(%d, %d): macroblock %d marked %v, want %v", lo, hi, a, c.has(a), on)
			}
			if on {
				n++
			}
		}
		if c.n != n {
			t.Fatalf("count %d, want %d", c.n, n)
		}
	}
}
