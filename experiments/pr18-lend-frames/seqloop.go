//go:build ignore

// seqloop is seq-intra-sif without the harness: public Decode, sequential
// mode, over the benchmark's all-I SIF stream (352x240, 8 Mb/s, 26 pictures
// tiled to 390), in rounds of a fixed number of decodes; it prints the best
// and the median round in pictures per second and, on request, writes a CPU
// profile. Public API only, so the same file builds in the parent's tree:
//
//	go build -o seqloop_new experiments/pr18-lend-frames/seqloop.go
//	./seqloop_new [-rounds 15] [-decodes 4] [-cpuprofile f]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"time"

	"mpeg2par"
)

func main() {
	rounds := flag.Int("rounds", 15, "rounds")
	decodes := flag.Int("decodes", 4, "decodes per round")
	prof := flag.String("cpuprofile", "", "write a CPU profile here")
	flag.Parse()
	st, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{Width: 352, Height: 240, Pictures: 26, GOPSize: 1,
		BitRate: 8_000_000, RepeatSequenceHeader: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "seqloop:", err)
		os.Exit(1)
	}
	data := bytes.Repeat(st.Data, 15)
	if *prof != "" {
		f, err := os.Create(*prof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "seqloop:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "seqloop:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	var rates []float64
	for r := 0; r < *rounds; r++ {
		n := 0
		t0 := time.Now()
		for d := 0; d < *decodes; d++ {
			_, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(data),
				mpeg2par.WithMode(mpeg2par.ModeSequential), mpeg2par.WithWorkers(1),
				mpeg2par.WithFrameSink(func(*mpeg2par.Frame) { n++ }))
			if err != nil {
				fmt.Fprintln(os.Stderr, "seqloop:", err)
				os.Exit(1)
			}
		}
		rates = append(rates, float64(n)/time.Since(t0).Seconds())
	}
	sort.Float64s(rates)
	fmt.Printf("best %.0f  median %.0f pics/s over %d rounds of %d pictures\n",
		rates[len(rates)-1], rates[len(rates)/2], *rounds, 390**decodes)
}
