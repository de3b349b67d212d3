// Command mpeg2bench regenerates the tables and figures of the paper's
// evaluation (Bilas, Fritts & Singh, IPPS 1997). Each experiment encodes
// its own test streams, profiles real decode costs, and replays them in
// the deterministic parallel simulator — see DESIGN.md for the full
// experiment index.
//
// Usage:
//
//	mpeg2bench                 # everything, at the default (small) scale
//	mpeg2bench -exp fig11      # one experiment
//	mpeg2bench -full           # all four paper resolutions incl. 1408x960
//	mpeg2bench -list           # experiment ids
//	mpeg2bench -timeline -trace t.json    # traced decode: load balance + Chrome trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mpeg2par/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	full := flag.Bool("full", false, "use all four paper resolutions (1408x960 is slow)")
	list := flag.Bool("list", false, "list experiment ids")
	workers := flag.Int("maxworkers", 14, "largest worker count in sweeps")
	profileGOPs := flag.Int("profilegops", 2, "GOPs to encode+measure per configuration")
	jsonOut := flag.Bool("json", false, "emit structured JSON instead of tables")
	traced := flag.Bool("timeline", false, "run a traced decode and report load balance + sync overhead from the event stream")
	traceOut := flag.String("trace", "", "with -timeline: also write Chrome trace JSON here (open in Perfetto)")
	traceMode := flag.String("mode", "slice-improved", "with -timeline: decode mode")
	traceWorkers := flag.Int("workers", 4, "with -timeline: worker count")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(bench.Names(), "\n"))
		return
	}
	if *traced {
		if err := runTimeline(*traceMode, *traceWorkers, *traceOut, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "mpeg2bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := bench.SmallConfig()
	if *full {
		cfg = bench.Config{}
	}
	cfg.MaxWorkers = *workers
	cfg.ProfileGOPs = *profileGOPs
	r := bench.NewRunner(cfg)

	start := time.Now()
	var err error
	switch {
	case *jsonOut && *exp == "all":
		err = r.AllJSON(os.Stdout)
	case *jsonOut:
		err = r.RunJSON(*exp, os.Stdout)
	case *exp == "all":
		err = r.All(os.Stdout)
	default:
		err = r.Run(*exp, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpeg2bench: %v\n", err)
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
	}
}

// runTimeline decodes the reference stream with the event tracer
// attached and prints the derived load-balance / sync-overhead report
// (internal/bench/timeline.go); -trace additionally exports the raw
// timeline as Chrome trace JSON.
func runTimeline(mode string, workers int, traceOut string, jsonOut bool) error {
	res, err := bench.TimelineRun(bench.TimelineConfig{
		Mode: mode, Workers: workers, TraceOut: traceOut,
	})
	if err != nil {
		return err
	}
	if jsonOut {
		return res.WriteJSON(os.Stdout)
	}
	res.WriteText(os.Stdout)
	if traceOut != "" {
		fmt.Printf("wrote %d timeline events to %s (open in Perfetto or chrome://tracing)\n",
			len(res.Timeline.Events), traceOut)
	}
	return nil
}
