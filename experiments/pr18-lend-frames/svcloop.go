//go:build ignore

// svcloop is svc-saturate without the harness: clients goroutines each
// resubmit one small stream to one Server as soon as the previous one
// returns, for a fixed time, and the program prints pictures per second,
// the server's metrics (which name the frame-lending counters from PR 18
// on) and, on request, a CPU profile. It uses only the public API, so the
// same file builds in the parent commit's tree:
//
//	go build -o svcloop_new experiments/pr18-lend-frames/svcloop.go
//	./svcloop_new [-seconds 5] [-clients 4] [-size 176x120] [-cpuprofile f] [-memprofile f]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"mpeg2par"
)

func main() {
	seconds := flag.Float64("seconds", 5, "how long to run")
	clients := flag.Int("clients", 4, "closed-loop clients")
	size := flag.String("size", "176x120", "picture size")
	prof := flag.String("cpuprofile", "", "write a CPU profile here")
	memprof := flag.String("memprofile", "", "write an allocation profile here (sampled every 4 KB)")
	flag.Parse()
	if *memprof != "" {
		runtime.MemProfileRate = 4096
	}
	var w, h int
	if _, err := fmt.Sscanf(*size, "%dx%d", &w, &h); err != nil {
		fmt.Fprintln(os.Stderr, "svcloop: -size:", err)
		os.Exit(2)
	}
	st, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{Width: w, Height: h, Pictures: 26, GOPSize: 13,
		IPDistance: 3, RepeatSequenceHeader: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcloop:", err)
		os.Exit(1)
	}
	srv := mpeg2par.NewServer(mpeg2par.ServerConfig{Workers: 2, DisableAutoDegrade: true})
	if *prof != "" {
		f, err := os.Create(*prof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "svcloop:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "svcloop:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	var pics, streams, failed atomic.Int64
	var peakHeap uint64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peakHeap {
					peakHeap = ms.HeapAlloc
				}
			}
		}
	}()
	d := time.Duration(*seconds * float64(time.Second))
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				n := 0
				ss, err := srv.Decode(context.Background(), mpeg2par.FromBytes(st.Data),
					mpeg2par.WithStreamSink(func(*mpeg2par.Frame) { n++ }))
				if err != nil || ss.Stats.LeakedFrameBytes != 0 || n != 26 {
					failed.Add(1)
				}
				pics.Add(int64(n))
				streams.Add(1)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(stop)
	sampler.Wait()
	m := srv.Metrics()
	srv.Close()
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err == nil {
			err = pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "svcloop:", err)
		}
	}
	fmt.Printf("%.0f pics/s  %d streams  %d failed  peak heap %.2f MB (sampled)\n",
		float64(pics.Load())/wall.Seconds(), streams.Load(), failed.Load(), float64(peakHeap)/1e6)
	fmt.Printf("metrics at the end, streams done, server open: %+v\n", m)
	fmt.Printf("metrics after Close: %+v\n", srv.Metrics())
}
