//go:build ignore

// scannedloop times core.DecodeScanned alone — what the benchmark's
// core.batch_pics_per_s probe calls — on the benchmark's streams, without the
// harness: the stream is built and scanned once, then decoded -rounds times
// in the workload's mode and sequentially, alternating, and the medians are
// printed with the last run's worker stats. Only names both trees have, so
// the one file builds in the parent's tree and in the change's:
//
//	go build -o scannedloop experiments/pr23-one-engine/scannedloop.go
//	./scannedloop [-w intra|sd|split] [-mode seq|gop|slice] [-workers 2] [-rounds 12]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/vldsplit"
)

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scannedloop:", err)
		os.Exit(1)
	}
}

func main() {
	w := flag.String("w", "sd", "stream: intra (seq-intra-sif), sd (the SD IBBP workloads), split (split-tall-sif-w2, indexed)")
	mode := flag.String("mode", "slice", "seq, gop or slice (improved)")
	workers := flag.Int("workers", 2, "workers (seq runs on one)")
	rounds := flag.Int("rounds", 12, "decodes per side")
	flag.Parse()

	cfg, tile := encoder.Config{Width: 704, Height: 480, Pictures: 26, GOPSize: 13, IPDistance: 3,
		BitRate: 4_000_000, RepeatSequenceHeader: true}, 15
	switch *w {
	case "intra":
		cfg, tile = encoder.Config{Width: 352, Height: 240, Pictures: 26, GOPSize: 1,
			BitRate: 8_000_000, RepeatSequenceHeader: true}, 15
	case "split":
		cfg, tile = encoder.Config{Width: 352, Height: 240, Pictures: 39, GOPSize: 13, IPDistance: 3,
			RowsPerSlice: 15, RepeatSequenceHeader: true}, 10
	}
	m, ok := map[string]core.Mode{"seq": core.ModeSequential, "gop": core.ModeGOP, "slice": core.ModeSliceImproved}[*mode]
	if !ok {
		fail(fmt.Errorf("-mode %q", *mode))
	}
	enc, err := encoder.EncodeSequence(cfg, frame.NewSynth(cfg.Width, cfg.Height))
	fail(err)
	end := []byte{0, 0, 1, 0xB7}
	body := bytes.TrimSuffix(enc.Data, end)
	data := append(bytes.Repeat(body, tile), end...)
	sm, err := core.Scan(data)
	fail(err)
	var ix *vldsplit.Index
	if *w == "split" {
		ix, err = core.BuildIndexScanned(data, sm)
		fail(err)
	}

	par := core.Options{Mode: m, Workers: *workers, SplitIndex: ix}
	seq := core.Options{Mode: core.ModeSequential, Workers: 1}
	var parT, seqT []time.Duration
	var last *core.Stats
	for i := 0; i < *rounds; i++ {
		t0 := time.Now()
		st, err := core.DecodeScanned(data, sm, par)
		fail(err)
		parT, last = append(parT, time.Since(t0)), st
		t0 = time.Now()
		_, err = core.DecodeScanned(data, sm, seq)
		fail(err)
		seqT = append(seqT, time.Since(t0))
	}
	slices.Sort(parT)
	slices.Sort(seqT)
	pics := float64(sm.TotalPictures)
	rate := func(d []time.Duration) float64 { return pics / d[len(d)/2].Seconds() }
	fmt.Printf("%s %s x%d: %d pictures, %d groups; median of %d: %.0f pics/s, sequential %.0f (speedup %.2f)\n",
		*w, last.Mode, last.Workers, sm.TotalPictures, len(sm.GOPs), *rounds, rate(parT), rate(seqT), rate(parT)/rate(seqT))
	tasks := 0
	for i, ws := range last.WorkerStats {
		tasks += ws.Tasks
		fmt.Printf("  worker %d: busy %v wait %v tasks %d parks %d\n", i, ws.Busy.Round(time.Microsecond), ws.Wait.Round(time.Microsecond), ws.Tasks, ws.Parks)
	}
	fmt.Printf("  %.2f tasks a picture, peak frame memory %.2f MB, split %+v\n", float64(tasks)/pics, float64(last.PeakFrameBytes)/1e6, last.Split)
}
