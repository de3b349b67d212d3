//go:build ignore

// Command helped counts the groups an idle worker helps decode, through
// each driver of the one pool loop: core.Decode in GOP mode, and a Server
// stream. The stream is 10 groups of 13 SIF pictures, decoded on two
// workers with one group in flight (MaxInFlight 1), so that every group
// starts on an idle pool with nothing queued — the offer rule's case.
//
//	go run experiments/pr41-one-pool/helped.go -runs 40
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"mpeg2par/internal/core"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/obs"
	"mpeg2par/internal/server"
	scan "mpeg2par/internal/stream"
)

func main() {
	runs := flag.Int("runs", 40, "decodes per driver")
	flag.Parse()
	res, err := encoder.EncodeSequence(encoder.Config{
		Width: 352, Height: 240, Pictures: 130, GOPSize: 13, RepeatSequenceHeader: true,
	}, frame.NewSynth(352, 240))
	if err != nil {
		log.Fatal(err)
	}
	const groups = 10

	// core.Decode: a helper's task span names its picture, the owner's
	// does not, so the groups helped are those with a named span.
	helped := 0
	for i := 0; i < *runs; i++ {
		tr := obs.New(0)
		if _, err := core.Decode(res.Data, core.Options{Mode: core.ModeGOP, Workers: 2, MaxInFlight: 1, Obs: tr}); err != nil {
			log.Fatal(err)
		}
		seen := map[int]bool{}
		for _, e := range tr.Snapshot().Events {
			if e.Kind == obs.KindTask && e.Pic >= 0 {
				seen[e.GOP] = true
			}
		}
		helped += len(seen)
	}
	fmt.Printf("core.Decode: %d of %d groups helped\n", helped, *runs*groups)

	// Server: Metrics.Assists counts the tasks an idle worker helped.
	srv := server.NewServer(server.Config{Workers: 2, DisableAutoDegrade: true})
	defer srv.Close()
	for i := 0; i < *runs; i++ {
		if _, err := srv.Decode(context.Background(), scan.Source{Data: res.Data}, server.StreamConfig{MaxInFlight: 1}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("Server: %d of %d groups helped\n", srv.Metrics().Assists, *runs*groups)
}
