//go:build ignore

// segcosts prints what `mpeg2bench -exp vldsplit` simulates from: the
// one-worker profile of the experiment's stream (352x240, 13 pictures, one
// slice a picture), unsplit and split by an exact index into the segments a
// pool of four cuts. Per pass: entries a picture, the unsplit total, the
// split total (their ratio is what splitting costs), the largest segment's
// share of its picture (what bounds the speedup), and the simulated
// makespans at four workers; then the same from the per-entry median over
// the passes, which is what the experiment replays (five passes a side
// there). Only names both trees have, so the one file
// runs in the parent's tree and in the change's:
//
//	go run experiments/pr23-one-engine/segcosts.go [-passes 7]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/simsched"
)

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "segcosts:", err)
		os.Exit(1)
	}
}

func profile(data []byte, opt core.Options) []simsched.SimPicture {
	opt.Mode, opt.Workers, opt.Profile = core.ModeSliceImproved, 1, true // one worker: stream order
	st, err := core.Decode(data, opt)
	fail(err)
	out := make([]simsched.SimPicture, len(st.SliceProf))
	for i, p := range st.SliceProf {
		out[i] = simsched.SimPicture{Ref: p.Ref, Intra: p.Type == 'I', DisplayIdx: p.DisplayIdx, SliceCosts: p.SliceCosts}
	}
	return out
}

func main() {
	passes := flag.Int("passes", 7, "profile passes")
	flag.Parse()
	const w, h, workers = 352, 240, 4
	rows := (h + 15) / 16
	enc, err := encoder.EncodeSequence(encoder.Config{
		Width: w, Height: h, Pictures: 13, GOPSize: 13, BitRate: 5_000_000, FrameRate: 30, RowsPerSlice: rows,
	}, frame.NewSynth(w, h))
	fail(err)
	m, err := core.Scan(enc.Data)
	fail(err)
	ix, err := core.BuildIndexScanned(enc.Data, m)
	fail(err)
	grain := core.TaskGrain((w+15)/16, rows, workers, true)
	parts := (rows + grain - 1) / grain
	fmt.Printf("%dx%d, 13 pictures, %d rows, %d parts\n", w, h, rows, parts)
	report := func(name string, unsplit, split []simsched.SimPicture) {
		var uSum, sSum time.Duration
		var entries int
		var share float64
		for i := range split {
			var sum, mx time.Duration
			for _, c := range split[i].SliceCosts {
				sum += c
				mx = max(mx, c)
			}
			entries += len(split[i].SliceCosts)
			sSum += sum
			share += float64(mx) / float64(sum)
			for _, c := range unsplit[i].SliceCosts {
				uSum += c
			}
		}
		simU := simsched.SimulateSlices(unsplit, workers, true).Makespan
		simS := simsched.SimulateSlices(split, workers, true).Makespan
		fmt.Printf("%s: %d+%d entries  unsplit %v  split %v (x%.3f)  largest segment %.3f of its picture  sim %v -> %v = %.2fx\n",
			name, len(unsplit), entries, uSum.Round(time.Microsecond), sSum.Round(time.Microsecond),
			float64(sSum)/float64(uSum), share/float64(len(split)),
			simU.Round(time.Microsecond), simS.Round(time.Microsecond), float64(simU)/float64(simS))
	}
	median := func(runs [][]simsched.SimPicture) []simsched.SimPicture {
		out := slices.Clone(runs[0])
		for i := range out {
			out[i].SliceCosts = make([]time.Duration, len(runs[0][i].SliceCosts))
			for j := range out[i].SliceCosts {
				var c []time.Duration
				for _, r := range runs {
					c = append(c, r[i].SliceCosts[j])
				}
				slices.Sort(c)
				out[i].SliceCosts[j] = c[len(c)/2]
			}
		}
		return out
	}
	var us, ss [][]simsched.SimPicture
	for pass := 0; pass < *passes; pass++ {
		us = append(us, profile(enc.Data, core.Options{}))
		ss = append(ss, profile(enc.Data, core.Options{SplitIndex: ix, SplitParts: parts}))
		report(fmt.Sprintf("pass %d", pass), us[pass], ss[pass])
	}
	report("median", median(us), median(ss))
}
