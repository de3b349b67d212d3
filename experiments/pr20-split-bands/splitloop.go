//go:build ignore

// splitloop is split-tall-sif-w2 (or, with -rows 1, the one-slice-per-row
// encoding of the same scene) without the harness: public Decode, improved
// slice mode, over 352x240 IBBP tiled to 390 pictures, in rounds of a fixed
// number of decodes. It prints the best and the median round in pictures per
// second and the workers' busy / wait / parks of the last decode, and on
// request writes a CPU profile or a Go execution trace. Public API only;
// WorkerStats.Parks does not exist at the parent, so build the parent's copy
// with -tags noparks … no: the field is read by reflection, so the same file
// builds in both trees:
//
//	go build -o splitloop_new experiments/pr20-split-bands/splitloop.go
//	./splitloop_new [-rows 15] [-workers 2] [-index=true] [-rounds 15] [-decodes 4] [-cpuprofile f] [-trace f]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"time"

	"mpeg2par"
)

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitloop:", err)
		os.Exit(1)
	}
}

func main() {
	size := flag.String("size", "352x240", "picture size; 704x480 with -rows 1 is the slice-ipb-sd-w2 geometry")
	batch := flag.Bool("batch", false, "decode through the batch entry point (fail-fast: the legacy one-slice-per-task path)")
	rows := flag.Int("rows", 15, "macroblock rows per slice (15 at 352x240: one slice per picture)")
	workers := flag.Int("workers", 2, "workers")
	indexed := flag.Bool("index", true, "decode with a split index")
	rounds := flag.Int("rounds", 15, "rounds")
	decodes := flag.Int("decodes", 4, "decodes per round")
	prof := flag.String("cpuprofile", "", "write a CPU profile here")
	trc := flag.String("trace", "", "write a Go execution trace of the last round here")
	flag.Parse()
	var w, h int
	if _, err := fmt.Sscanf(*size, "%dx%d", &w, &h); err != nil {
		fail(fmt.Errorf("-size %q: %v", *size, err))
	}
	cfg := mpeg2par.StreamConfig{Width: w, Height: h, Pictures: 39, GOPSize: 13,
		IPDistance: 3, RowsPerSlice: *rows, RepeatSequenceHeader: true}
	if h > 240 {
		cfg.BitRate = 4_000_000
	}
	st, err := mpeg2par.GenerateStream(cfg)
	fail(err)
	data := bytes.Repeat(st.Data, 10)
	opts := []mpeg2par.Option{mpeg2par.WithMode(mpeg2par.ModeSliceImproved), mpeg2par.WithWorkers(*workers)}
	if *indexed && *rows > 1 {
		ix, err := mpeg2par.BuildIndex(context.Background(), mpeg2par.FromBytes(data))
		fail(err)
		opts = append(opts, mpeg2par.WithIndex(ix))
	}
	if *prof != "" {
		f, err := os.Create(*prof)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	var rates []float64
	var last *mpeg2par.Stats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < *rounds; r++ {
		if *trc != "" && r == *rounds-1 {
			f, err := os.Create(*trc)
			fail(err)
			fail(trace.Start(f))
			defer f.Close()
			defer trace.Stop()
		}
		n := 0
		t0 := time.Now()
		for d := 0; d < *decodes; d++ {
			if *batch {
				last, err = mpeg2par.DecodeParallel(data, mpeg2par.Options{Mode: mpeg2par.ModeSliceImproved, Workers: *workers,
					Sink: func(*mpeg2par.Frame) { n++ }})
			} else {
				last, err = mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(data),
					append(opts, mpeg2par.WithFrameSink(func(*mpeg2par.Frame) { n++ }))...)
			}
			fail(err)
		}
		rates = append(rates, float64(n)/time.Since(t0).Seconds())
	}
	runtime.ReadMemStats(&m1)
	sort.Float64s(rates)
	fmt.Printf("best %.0f  median %.0f pics/s over %d rounds of %d pictures\n",
		rates[len(rates)-1], rates[len(rates)/2], *rounds, 390**decodes)
	calls := uint64(*rounds * *decodes)
	fmt.Printf("  per decode: %.2f MB in %d allocations; %d collections in all\n",
		float64(m1.TotalAlloc-m0.TotalAlloc)/float64(calls)/1e6, (m1.Mallocs-m0.Mallocs)/calls, m1.NumGC-m0.NumGC)
	for wi, ws := range last.WorkerStats {
		parks := "n/a"
		if f := reflect.ValueOf(ws).FieldByName("Parks"); f.IsValid() {
			parks = fmt.Sprint(f.Int())
		}
		fmt.Printf("  worker %d: busy %v wait %v tasks %d parks %s\n", wi, ws.Busy.Round(time.Microsecond), ws.Wait.Round(time.Microsecond), ws.Tasks, parks)
	}
	fmt.Printf("  split: %+v\n", last.Split)
}
