//go:build ignore

// seqloop decodes the seq-ipb-sd scene (704x480 IBBP at 4 Mb/s, 26
// pictures) sequentially, over and over, for a fixed time and prints
// pictures per second, optionally writing a CPU profile. It uses only the
// public API, so the same file builds in the parent commit's tree:
//
//	go build -o seqloop experiments/pr35-one-call-mc/seqloop.go
//	./seqloop [-seconds 5] [-intra] [-mode seq|gop -workers 2] [-cpuprofile f]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"mpeg2par"
)

func main() {
	seconds := flag.Float64("seconds", 5, "how long to run")
	intra := flag.Bool("intra", false, "the seq-intra-sif scene instead: all-I 352x240 at 8 Mb/s")
	mode := flag.String("mode", "seq", "seq or gop")
	workers := flag.Int("workers", 2, "workers in gop mode")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here")
	flag.Parse()

	cfg := mpeg2par.StreamConfig{Width: 704, Height: 480, Pictures: 26, GOPSize: 13, IPDistance: 3,
		BitRate: 4_000_000, RepeatSequenceHeader: true}
	if *intra {
		cfg = mpeg2par.StreamConfig{Width: 352, Height: 240, Pictures: 26, GOPSize: 1,
			BitRate: 8_000_000, RepeatSequenceHeader: true}
	}
	s, err := mpeg2par.GenerateStream(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := []mpeg2par.Option{mpeg2par.WithMode(mpeg2par.ModeSequential)}
	if *mode == "gop" {
		opts = []mpeg2par.Option{mpeg2par.WithMode(mpeg2par.ModeGOP), mpeg2par.WithWorkers(*workers)}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}
	pics := 0
	start := time.Now()
	for time.Since(start).Seconds() < *seconds {
		res, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(s.Data), opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pics += res.Displayed
	}
	fmt.Printf("%.1f pics/s\n", float64(pics)/time.Since(start).Seconds())
}
