// Scale study: how many processors does real-time decoding need at each
// resolution? This example reproduces the paper's headline question for a
// display rate of 30 pictures/second, using measured task costs replayed
// under 1..16 simulated workers — including the §7.2 distributed-memory
// (DASH-like) variant — and what the improved slice mode's synchronisation
// rule is worth: the paper's barrier after every I/P picture against the
// row-window readiness rule the decoder runs, both simulated, beside the
// one point this host can measure.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"mpeg2par"
)

func main() {
	fmt.Println("workers needed for 30 pics/s, by resolution and strategy:")
	for _, res := range []struct{ w, h int }{{176, 120}, {352, 240}, {704, 480}} {
		// Enough GOPs that the coarse-grained decoder has tasks for every
		// worker in the sweep (a 2-GOP clip would cap its speedup at 2).
		stream, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{
			Width: res.w, Height: res.h, Pictures: 104, GOPSize: 13, BitRate: 5_000_000,
		})
		if err != nil {
			log.Fatal(err)
		}
		gops, err := mpeg2par.ProfileGOPs(stream.Data)
		if err != nil {
			log.Fatal(err)
		}
		pics, err := mpeg2par.ProfileSlices(stream.Data)
		if err != nil {
			log.Fatal(err)
		}
		need := func(rate func(p int) float64) string {
			for p := 1; p <= 16; p++ {
				if rate(p) >= 30 {
					return fmt.Sprintf("%d", p)
				}
			}
			return ">16"
		}
		n := float64(len(stream.Pictures))
		gopNeed := need(func(p int) float64 {
			return n / mpeg2par.SimulateGOP(gops, p).Makespan.Seconds()
		})
		sliceNeed := need(func(p int) float64 {
			return n / mpeg2par.SimulateSlices(pics, p, true).Makespan.Seconds()
		})
		one := n / mpeg2par.SimulateGOP(gops, 1).Makespan.Seconds()
		// A modern core decodes far beyond real time; to recover the
		// paper's 1997 story, also evaluate at the ~150 MHz R4400's
		// speed (roughly 1/200th of this host on this integer code).
		const r4400Slowdown = 200
		need97 := func(rate func(p int) float64) string {
			for p := 1; p <= 16; p++ {
				if rate(p)/r4400Slowdown >= 30 {
					return fmt.Sprintf("%d", p)
				}
			}
			return ">16"
		}
		gop97 := need97(func(p int) float64 {
			return n / mpeg2par.SimulateGOP(gops, p).Makespan.Seconds()
		})
		slice97 := need97(func(p int) float64 {
			return n / mpeg2par.SimulateSlices(pics, p, true).Makespan.Seconds()
		})
		fmt.Printf("  %4dx%-4d: %7.1f pics/s on one worker -> gop needs %s, improved slice needs %s\n",
			res.w, res.h, one, gopNeed, sliceNeed)
		fmt.Printf("             on 1997 hardware (~%dx slower): gop %s, improved slice %s workers\n",
			r4400Slowdown, gop97, slice97)
	}

	// Distributed shared memory (§7.2): the same sweep on a DASH-like
	// machine of 4-processor clusters, where remote misses inflate task
	// costs. Speedups flatten even though the queues stay busy.
	fmt.Println("\nimproved slice on a DASH-like DSM (speedup over one 4-processor cluster):")
	stream, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{
		Width: 704, Height: 480, Pictures: 26, GOPSize: 13, BitRate: 5_000_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	pics, err := mpeg2par.ProfileSlices(stream.Data)
	if err != nil {
		log.Fatal(err)
	}
	cfg := mpeg2par.DSMConfig{ClusterSize: 4, RemoteFactor: 0.3}
	base := mpeg2par.SimulateSlicesDSM(pics, 4, true, cfg).Makespan
	for _, p := range []int{8, 16, 32} {
		mk := mpeg2par.SimulateSlicesDSM(pics, p, true, cfg).Makespan
		fmt.Printf("  %2d procs: %.2fx (paper measured 1.8 / 3.4 / 5.2)\n", p, float64(base)/float64(mk))
	}

	// The same profile replayed under the two synchronisation rules. The
	// profile carries each picture's row window (from its f_code), which
	// SimulateSlices ignores and SimulateSlicesMax(…, 0) obeys.
	fmt.Println("\nimproved slice, 704x480, speedup over one worker (SIMULATED from one-worker task costs):")
	fmt.Println("  workers   barrier after I/P (paper)   row-window readiness (this decoder)")
	one := mpeg2par.SimulateSlices(pics, 1, true).Makespan
	for _, p := range []int{2, 3, 4, 6, 8, 12, 16} {
		barrier := mpeg2par.SimulateSlices(pics, p, true).Makespan
		window := mpeg2par.SimulateSlicesMax(pics, p, 0).Makespan
		fmt.Printf("  %7d   %25.2fx   %34.2fx\n", p, float64(one)/float64(barrier), float64(one)/float64(window))
	}
	if runtime.NumCPU() < 2 {
		fmt.Println("  measured: this host has one CPU, so there is no real point to set beside the curves")
		return
	}
	// Wall-clock decodes, best of five each: the simulator knows nothing
	// of what parking and waking a worker costs.
	wall := func(mode mpeg2par.Mode, workers int) time.Duration {
		best := time.Duration(0)
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(stream.Data),
				mpeg2par.WithMode(mode), mpeg2par.WithWorkers(workers)); err != nil {
				log.Fatal(err)
			}
			if d := time.Since(t0); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	seq := wall(mpeg2par.ModeSequential, 1)
	par := wall(mpeg2par.ModeSliceImproved, 2)
	fmt.Printf("  measured on this host's real cores, 2 workers: %.2fx (%d pictures, best of 5)\n",
		float64(seq)/float64(par), len(stream.Pictures))
}
