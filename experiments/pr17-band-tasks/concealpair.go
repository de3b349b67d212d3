//go:build ignore

// concealpair prices the frame scrub: public Decode in improved slice mode
// on two workers over the benchmark's SD stream (704x480 IBBP at 4 Mb/s,
// 26 pictures tiled to 390), fail-fast against ConcealSlice, the two
// policies alternating, one figure per policy per round. It uses only the
// public API, so the same file builds in the parent commit's tree:
//
//	go build -o conceal_new experiments/pr17-band-tasks/concealpair.go
//	./conceal_new [-rounds 12] [-seconds 1]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"mpeg2par"
)

func main() {
	rounds := flag.Int("rounds", 12, "rounds per policy")
	seconds := flag.Float64("seconds", 1, "seconds per round and policy")
	flag.Parse()

	st, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{Width: 704, Height: 480, Pictures: 26,
		GOPSize: 13, IPDistance: 3, BitRate: 4_000_000, RepeatSequenceHeader: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	end := []byte{0, 0, 1, 0xB7}
	body := bytes.TrimSuffix(st.Data, end)
	data := append(bytes.Repeat(body, 15), end...)

	policies := []mpeg2par.Resilience{mpeg2par.FailFast, mpeg2par.ConcealSlice}
	rates := make([][]float64, len(policies))
	run := func(p mpeg2par.Resilience) float64 {
		pics, t0 := 0, time.Now()
		for time.Since(t0).Seconds() < *seconds {
			s, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(data),
				mpeg2par.WithMode(mpeg2par.ModeSliceImproved), mpeg2par.WithWorkers(2), mpeg2par.WithResilience(p))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			pics += s.Pictures
		}
		return float64(pics) / time.Since(t0).Seconds()
	}
	run(policies[0]) // warm-up
	for r := 0; r < *rounds; r++ {
		for i := range policies {
			k := (i + r) % len(policies) // alternate which goes first
			rates[k] = append(rates[k], run(policies[k]))
		}
	}
	med := func(v []float64) float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
	}
	ff, cs := med(rates[0]), med(rates[1])
	fmt.Printf("failfast %.0f pics/s  conceal-slice %.0f pics/s  (%+.1f%%)  medians of %d rounds of %.1fs\n",
		ff, cs, 100*(cs/ff-1), *rounds, *seconds)
}
