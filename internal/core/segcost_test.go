package core

import (
	"bytes"
	"slices"
	"strconv"
	"testing"
	"time"
)

// BenchmarkSplitSegmentCost measures what cutting a slice costs beyond its
// macroblocks, the figures TaskGrain's constants come from. It decodes the
// tall SIF stream of the benchmark's split workload (352x240, one slice a
// picture, IBBP, three groups tiled ten times: 390 pictures) on one
// worker, whole and in 2, 4, 8 and 15 segments, one decode of each per
// iteration in rotating order so that a loaded host skews every count
// alike. Per count it reports the median wall time a picture (ns/pic-N).
// Fitting lines through the split counts' medians:
//
//   - ns/extra-seg, the wall slope: what one more segment costs;
//   - ns/task-outside, the slope of the time outside the tasks (wall less
//     the worker's Busy): what take, finish and picture completion charge
//     any task, a row group's as much as a segment's;
//   - ns/MB, the wall line at one segment over a picture's macroblocks: a
//     macroblock's decode, net of any task's fixed cost.
//
// The whole slice (ns/pic-1) is reported but not fitted: it decodes one
// 330-macroblock run through one coefficient buffer and is no point of the
// segments' line. The host's load moves every figure by tens of percent
// from run to run: take medians over runs of -benchtime 20x -count 8.
func BenchmarkSplitSegmentCost(b *testing.B) {
	res := tallIPB(b, 352, 240, 39, 13)
	end := []byte{0, 0, 1, 0xB7} // sequence_end_code, kept once
	body, ok := bytes.CutSuffix(res.Data, end)
	if !ok {
		b.Fatal("stream does not end with sequence_end_code")
	}
	data := append(bytes.Repeat(body, 10), end...)
	ix := buildIndex(b, data)
	m, err := Scan(data)
	if err != nil {
		b.Fatal(err)
	}
	var pics float64
	for _, g := range m.GOPs {
		pics += float64(len(g.Pictures))
	}
	counts := []int{1, 2, 4, 8, 15}
	wall := make([][]float64, len(counts))    // ns a picture, one per iteration
	outside := make([][]float64, len(counts)) // of which outside the tasks
	var mbs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range counts {
			k := (i + r) % len(counts)
			n := counts[k]
			t0 := time.Now()
			st, err := Decode(data, Options{Mode: ModeSliceImproved, Workers: 1, SplitIndex: ix, SplitParts: n})
			el := time.Since(t0)
			if err != nil {
				b.Fatal(err)
			}
			if want := n * int(pics); n > 1 && st.Split.SegmentsRun != want {
				b.Fatalf("%d segments: ran %d, want %d", n, st.Split.SegmentsRun, want)
			}
			wall[k] = append(wall[k], float64(el)/pics)
			outside[k] = append(outside[k], float64(el-st.WorkerStats[0].Busy)/pics)
			mbs = float64(st.Work.MBs) / pics
		}
	}
	b.StopTimer()
	med := func(v [][]float64) []float64 {
		m := make([]float64, len(v))
		for k := range v {
			s := slices.Clone(v[k])
			slices.Sort(s)
			m[k] = s[len(s)/2]
		}
		return m
	}
	x := make([]float64, len(counts))
	for k, n := range counts {
		x[k] = float64(n)
	}
	w := med(wall)
	for k, n := range counts {
		b.ReportMetric(w[k], "ns/pic-"+strconv.Itoa(n))
	}
	seg, icpt := fit(x[1:], w[1:])
	out, _ := fit(x[1:], med(outside)[1:])
	b.ReportMetric(seg, "ns/extra-seg")
	b.ReportMetric(out, "ns/task-outside")
	b.ReportMetric((icpt+seg)/mbs, "ns/MB")
}

// fit returns the least-squares line of y on x: slope and intercept.
func fit(x, y []float64) (slope, icpt float64) {
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(len(x))
	my /= float64(len(x))
	var sxy, sxx float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
	}
	slope = sxy / sxx
	return slope, my - slope*mx
}
