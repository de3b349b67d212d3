//go:build ignore

// helplanes runs svc-paced's traffic without the harness — 39-picture SIF
// streams arriving at seeded Poisson instants on a two-worker Server at
// about half its capacity, each paced at 5000/6 pictures per second with a
// 33 ms frame deadline — under a timeline recorder, and reports per worker
// lane the group spans it ran and the picture spans it helped (a helper's
// KindTask span names its picture, an owner's does not), the server's
// Assists, and frame latency from due. -trace writes the recorder's Chrome
// trace after validating it. Public API plus obs' validator, so the same
// file runs in a tree without helpers (which shows no helper spans):
//
//	go run experiments/pr27-idle-help/helplanes.go [-seconds 8] [-seed 1] [-trace t.json]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"mpeg2par"
	"mpeg2par/internal/obs"
)

func main() {
	seconds := flag.Float64("seconds", 8, "how long to offer streams")
	seed := flag.Int64("seed", 1, "arrival schedule seed")
	tracePath := flag.String("trace", "", "write the Chrome trace here")
	flag.Parse()

	stream, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{Width: 352, Height: 240, Pictures: 39,
		GOPSize: 13, IPDistance: 3, RepeatSequenceHeader: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "helplanes:", err)
		os.Exit(1)
	}
	const offered, concurrency, deadline = 5000.0, 6.0, 33 * time.Millisecond
	rate := offered / concurrency // one stream's pictures/s
	gopEvery := time.Duration(13 / rate * float64(time.Second))

	rec := mpeg2par.NewTraceRecorder(1 << 16)
	srv := mpeg2par.NewServer(mpeg2par.ServerConfig{Workers: 2, QueueDepth: 64, Trace: rec})
	rng := rand.New(rand.NewSource(*seed))
	var mu sync.Mutex
	var lat []float64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(time.Duration(*seconds * float64(time.Second)))
	failed := 0
	for due := start; due.Before(end); due = due.Add(time.Duration(rng.ExpFloat64() / (offered / 39) * float64(time.Second))) {
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(due time.Time) {
			defer wg.Done()
			_, err := srv.Decode(context.Background(), mpeg2par.FromBytes(stream.Data),
				mpeg2par.WithPicRate(rate), mpeg2par.WithFrameDeadline(deadline),
				mpeg2par.WithStreamSink(func(f *mpeg2par.Frame) {
					d := time.Since(due) - time.Duration(f.DisplayIndex/13)*gopEvery
					mu.Lock()
					lat = append(lat, float64(d)/1e6)
					mu.Unlock()
				}))
			if err != nil {
				mu.Lock()
				failed++
				mu.Unlock()
			}
		}(due)
	}
	wg.Wait()
	wall := time.Since(start)
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "helplanes:", err)
	}
	m := srv.Metrics()

	type lane struct {
		groups, helped int
		groupT, helpT  time.Duration
	}
	lanes := map[int]*lane{}
	tl := rec.Snapshot()
	for _, e := range tl.Events {
		if e.Kind != obs.KindTask || e.Lane < 0 {
			continue
		}
		l := lanes[e.Lane]
		if l == nil {
			l = &lane{}
			lanes[e.Lane] = l
		}
		if e.Pic >= 0 {
			l.helped++
			l.helpT += time.Duration(e.Dur)
		} else {
			l.groups++
			l.groupT += time.Duration(e.Dur)
		}
	}
	sort.Float64s(lat)
	q := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		return lat[int(p*float64(len(lat)-1))]
	}
	fmt.Printf("%d frames in %.2f s, %d streams failed; latency from due p50 %.3f ms, p90 %.3f ms\n",
		len(lat), wall.Seconds(), failed, q(0.5), q(0.9))
	fmt.Printf("assists %d (tasks an idle worker helped), %.1f per 1000 pictures\n", m.Assists, 1000*float64(m.Assists)/float64(len(lat)))
	for wi := 0; wi < 2; wi++ {
		l := lanes[wi]
		if l == nil {
			l = &lane{}
		}
		fmt.Printf("worker %d: %d group spans %.0f ms, %d helped-picture spans %.0f ms, busy %.1f %%\n", wi,
			l.groups, l.groupT.Seconds()*1e3, l.helped, l.helpT.Seconds()*1e3, 100*(l.groupT+l.helpT).Seconds()/wall.Seconds())
	}
	if *tracePath != "" {
		var buf bytes.Buffer
		if err := tl.WriteChromeTrace(&buf); err != nil {
			fmt.Fprintln(os.Stderr, "helplanes:", err)
			os.Exit(1)
		}
		if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
			fmt.Fprintln(os.Stderr, "helplanes: trace does not validate:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*tracePath, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "helplanes:", err)
			os.Exit(1)
		}
	}
}
