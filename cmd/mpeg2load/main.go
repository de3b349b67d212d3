// Command mpeg2load drives the multi-stream decode service far past its
// pool capacity and reports how it held up: aggregate throughput, frame
// latency percentiles, within-class fairness, and the graceful-
// degradation ladder's activity (shed pictures, pauses, rejections).
// The run fails loudly if any stream wedges, starves, or leaks — the
// same invariants the service test gate asserts.
//
// Usage:
//
//	mpeg2load                          # 64 streams, 2 priority classes, NumCPU workers
//	mpeg2load -streams 128 -workers 2  # heavier overload
//	mpeg2load -sinkdelay 300us         # add per-frame delivery cost to force saturation
//	mpeg2load -dispatch edf            # earliest-deadline-first with slack actions
//	mpeg2load -dispatch fair -noslack  # PR 8 baseline (weighted fair, slack frozen)
//	mpeg2load -json                    # structured output
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mpeg2par/internal/server"
)

func main() {
	workers := flag.Int("workers", 0, "shared pool size (0 = NumCPU)")
	streams := flag.Int("streams", 64, "concurrent streams")
	classes := flag.Int("classes", 2, "priority classes (streams assigned round-robin)")
	pics := flag.Int("pics", 16, "pictures per stream")
	gop := flag.Int("gop", 4, "GOP size")
	width := flag.Int("width", 48, "stream width")
	height := flag.Int("height", 32, "stream height")
	deadline := flag.Duration("deadline", 250*time.Millisecond, "per-frame latency budget")
	inflight := flag.Int("inflight", 2, "per-stream scan-ahead bound (MaxInFlight)")
	sinkDelay := flag.Duration("sinkdelay", 300*time.Microsecond, "artificial per-frame delivery cost (keeps the pool saturated; 0 disables)")
	dispatch := flag.String("dispatch", "auto", "pool task ordering: auto, fair, or edf")
	noSlack := flag.Bool("noslack", false, "freeze per-frame slack actions (plan-time shedding)")
	jsonOut := flag.Bool("json", false, "emit JSON instead of the table")
	flag.Parse()

	policy, err := server.ParseDispatch(*dispatch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpeg2load: %v\n", err)
		os.Exit(1)
	}

	res, err := runLoad(loadConfig{
		Workers: *workers, Streams: *streams, PriorityClasses: *classes,
		Width: *width, Height: *height, Pictures: *pics, GOPSize: *gop,
		Deadline: *deadline, MaxInFlight: *inflight, SinkDelay: *sinkDelay,
		Dispatch: policy, DisableSlackActions: *noSlack,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpeg2load: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		if err := res.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "mpeg2load: %v\n", err)
			os.Exit(1)
		}
		return
	}
	res.WriteText(os.Stdout)
}
