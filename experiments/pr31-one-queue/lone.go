//go:build ignore

// lone decodes one 39-picture SIF stream (three groups of 13) at a time on
// a two-worker Server, again and again: every group starts with the other
// worker idle, so every group takes it as a helper. It prints the wall time
// of one stream (quartiles) and the assists. This is the helped path alone,
// without svc-paced's arrivals and deadlines.
//
//	go run lone.go -streams 300
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/server"
	"mpeg2par/internal/stream"
)

func main() {
	streams := flag.Int("streams", 300, "streams to decode, one after the other")
	flag.Parse()
	res, err := encoder.EncodeSequence(encoder.Config{
		Width: 352, Height: 240, Pictures: 39, GOPSize: 13, RepeatSequenceHeader: true,
	}, frame.NewSynth(352, 240))
	if err != nil {
		log.Fatal(err)
	}
	srv := server.NewServer(server.Config{Workers: 2, DisableAutoDegrade: true})
	defer srv.Close()
	var ds []time.Duration
	for i := 0; i < *streams; i++ {
		t0 := time.Now()
		if _, err := srv.Decode(context.Background(), stream.Source{Data: res.Data}, server.StreamConfig{
			MaxInFlight: 1, Sink: func(*frame.Frame) {},
		}); err != nil {
			log.Fatal(err)
		}
		ds = append(ds, time.Since(t0))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	n := len(ds)
	fmt.Printf("%d streams: p25 %v p50 %v p75 %v; assists %d\n", n, ds[n/4], ds[n/2], ds[3*n/4], srv.Metrics().Assists)
}
