//go:build ignore

// heaploop measures what a decode keeps live against how long the stream is,
// without the harness: public Decode from a bytes.Reader over the benchmark's
// SD IBBP stream (or, with -intra, its all-I SIF stream) tiled -tile times;
// every -every pictures the sink collects and reads the live heap. It prints
// the largest reading, the same with the input's own bytes taken off and with
// the frame pool's taken off too (how many frames GOP mode holds is the
// schedule's business and differs run to run), and Stats.PeakInFlightBytes, the gauge that is meant to tell the same story;
// and beside them what internal/memmodel makes of the same run: the peak of
// scan(x) and of frames(x) at the scan rate of a bare ScanReader pass, the
// run's own decode rate per worker and an unthrottled display, first as the
// model stands (a scan nothing holds back) and then with scan(x) capped at
// the 2·workers+2 groups the pipeline lets in flight.
// Public API only, so the one file builds in the parent's tree and in the
// change's:
//
//	go build -o heaploop experiments/pr21-bounded-plan/heaploop.go
//	./heaploop [-mode seq|gop|slice] [-intra] [-tile 15] [-workers 2] [-every 30] [-memprofile f -at 360]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"mpeg2par"
)

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "heaploop:", err)
		os.Exit(1)
	}
}

func main() {
	mode := flag.String("mode", "slice", "seq, gop or slice (improved)")
	intra := flag.Bool("intra", false, "all-I 352x240 at 8 Mb/s (seq-intra-sif) instead of 704x480 IBBP at 4 Mb/s")
	tile := flag.Int("tile", 15, "copies of the 26-picture stream: 15 = 390 pictures, 60 = 1560, 150 = 3900")
	workers := flag.Int("workers", 2, "workers (seq runs on one)")
	every := flag.Int("every", 30, "collect and read the heap every this many pictures")
	prof := flag.String("memprofile", "", "write a heap profile here, taken at picture -at")
	at := flag.Int("at", 360, "picture the heap profile is taken at")
	flag.Parse()

	cfg := mpeg2par.StreamConfig{Width: 704, Height: 480, Pictures: 26, GOPSize: 13, IPDistance: 3,
		BitRate: 4_000_000, RepeatSequenceHeader: true}
	if *intra {
		cfg = mpeg2par.StreamConfig{Width: 352, Height: 240, Pictures: 26, GOPSize: 1,
			BitRate: 8_000_000, RepeatSequenceHeader: true}
	}
	m, ok := map[string]mpeg2par.Mode{"seq": mpeg2par.ModeSequential, "gop": mpeg2par.ModeGOP,
		"slice": mpeg2par.ModeSliceImproved}[*mode]
	if !ok {
		fail(fmt.Errorf("-mode %q", *mode))
	}
	st, err := mpeg2par.GenerateStream(cfg)
	fail(err)
	end := []byte{0, 0, 1, 0xB7}
	body := bytes.TrimSuffix(st.Data, end)
	data := make([]byte, 0, len(body)**tile+len(end)) // exactly: what append would round up to is not the decoder's
	for i := 0; i < *tile; i++ {
		data = append(data, body...)
	}
	data = append(data, end...)
	st = nil

	runtime.GC()
	runtime.MemProfileRate = 4096
	var ms runtime.MemStats
	var peak uint64
	n := 0
	stats, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(data),
		mpeg2par.WithMode(m), mpeg2par.WithWorkers(*workers),
		mpeg2par.WithFrameSink(func(*mpeg2par.Frame) {
			n++
			if n%*every != 0 && n != *at {
				return
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
			if *prof != "" && n == *at {
				f, err := os.Create(*prof)
				fail(err)
				fail(pprof.Lookup("heap").WriteTo(f, 0))
				fail(f.Close())
			}
		}))
	fail(err)
	if n != 26**tile {
		fail(fmt.Errorf("%d pictures delivered, want %d", n, 26**tile))
	}
	sm, err := mpeg2par.ScanReader(bytes.NewReader(data), 0)
	fail(err)
	groups := len(sm.GOPs)
	model := mpeg2par.MemModel{Workers: stats.Workers, GOPs: groups, PicturesPerGOP: n / groups,
		FrameBytes: int64(cfg.Width * cfg.Height * 3 / 2), BytesPerGOP: int64(len(data) / groups),
		ScanGOPsPerSec:   float64(groups) / sm.ScanTime.Seconds(),
		DecodeGOPsPerSec: float64(groups) / stats.Wall.Seconds() / float64(stats.Workers)}
	pts, err := model.Series(2000)
	fail(err)
	var scan, frames int64
	for _, pt := range pts {
		scan, frames = max(scan, pt.Scan), max(frames, pt.Frames)
	}
	window := min(scan, int64(2*stats.Workers+2)*model.BytesPerGOP)
	above := float64(peak) - float64(len(data))
	fmt.Printf("%s intra=%v pictures=%d input=%.2fMB  live heap peak %.2f MB, above the input %.2f MB, above input and frames %.2f MB  PeakInFlightBytes %d KB  frames %.2f MB\n",
		*mode, *intra, n, float64(len(data))/1e6, float64(peak)/1e6, above/1e6, (above-float64(stats.PeakFrameBytes))/1e6,
		stats.PeakInFlightBytes>>10, float64(stats.PeakFrameBytes)/1e6)
	fmt.Printf("  memmodel (GOP-grain, %d workers): scan(x) %.2f MB + frames(x) %.2f MB; scan(x) capped by the window %.2f MB\n",
		stats.Workers, float64(scan)/1e6, float64(frames)/1e6, float64(window)/1e6)
}
