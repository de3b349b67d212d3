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
//	mpeg2bench -perf -json -label after   # append a perf run to BENCH_<n>.json
//	mpeg2bench -faults [-json]            # corruption sweep: PSNR vs loss rate
//	mpeg2bench -sched [-workers 4]        # slice-order vs LPT packing comparison
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
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
	perf := flag.Bool("perf", false, "run the perf-trajectory harness and append to a BENCH_<n>.json")
	repeat := flag.Int("repeat", 0, "with -perf/-sched: timed repetitions per point, median kept (0 = default 3)")
	sched := flag.Bool("sched", false, "run the packing comparison (a picture's slices in slice order vs LPT, on a skewed stream)")
	faultsSweep := flag.Bool("faults", false, "run the corruption sweep (PSNR vs loss rate under each resilience policy)")
	faultSeed := flag.Int64("seed", 1, "with -faults: fault-injection seed")
	perfOut := flag.String("o", "", "perf output file (default: highest existing BENCH_<n>.json, else BENCH_1.json)")
	perfLabel := flag.String("label", "", "label recorded with the perf run")
	perfNew := flag.Bool("new", false, "with -perf: start the next-numbered BENCH_<n>.json instead of appending")
	traced := flag.Bool("timeline", false, "run a traced decode and report load balance + sync overhead from the event stream")
	traceOut := flag.String("trace", "", "with -timeline: also write Chrome trace JSON here (open in Perfetto)")
	traceMode := flag.String("mode", "slice-improved", "with -timeline: decode mode")
	traceWorkers := flag.Int("workers", 4, "with -timeline: worker count")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(bench.Names(), "\n"))
		return
	}
	if *perf {
		if err := runPerf(*perfOut, *perfLabel, *perfNew, *repeat); err != nil {
			fmt.Fprintf(os.Stderr, "mpeg2bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "service" {
		if err := runService(*perfOut, *perfLabel, *traceWorkers); err != nil {
			fmt.Fprintf(os.Stderr, "mpeg2bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "vldsplit" {
		if err := runVLDSplit(*perfOut, *perfLabel, *traceWorkers); err != nil {
			fmt.Fprintf(os.Stderr, "mpeg2bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "deadline" {
		if err := runDeadline(*perfOut, *perfLabel); err != nil {
			fmt.Fprintf(os.Stderr, "mpeg2bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *sched {
		if err := runSched(*traceWorkers, *repeat, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "mpeg2bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *faultsSweep {
		if err := runFaults(*faultSeed, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "mpeg2bench: %v\n", err)
			os.Exit(1)
		}
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

// runFaults executes the corruption sweep (internal/bench/faults.go):
// decode quality and ErrorStats under each resilience policy across a
// battery of injected faults, with a built-in determinism cross-check.
func runFaults(seed int64, jsonOut bool) error {
	res, err := bench.FaultSweep(bench.FaultConfig{Seed: seed})
	if err != nil {
		return err
	}
	if jsonOut {
		return res.WriteJSON(os.Stdout)
	}
	res.RenderFaultTable(os.Stdout)
	return nil
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

// runSched executes the packing comparison (internal/bench/sched.go):
// slice-order vs LPT packing of each picture's slice tasks on a stream
// with skewed slice costs, beside the GOP row (stream order) and the
// auto-tuned point, measured by imbalance factor and throughput.
func runSched(workers, repeat int, jsonOut bool) error {
	res, err := bench.SchedCompare(bench.SchedConfig{Workers: workers, Repeats: repeat})
	if err != nil {
		return err
	}
	if jsonOut {
		return res.WriteJSON(os.Stdout)
	}
	res.WriteText(os.Stdout)
	return nil
}

// runPerf executes the perf-trajectory harness and appends the run to the
// selected BENCH_<n>.json (see internal/bench/perf.go for the schema).
func runPerf(out, label string, startNew bool, repeat int) error {
	if out == "" {
		out = pickBenchFile(startNew)
	}
	if label == "" {
		label = "run-" + time.Now().UTC().Format("20060102T150405Z")
	}
	run, err := bench.PerfTrajectory(bench.PerfConfig{Repeats: repeat}, label)
	if err != nil {
		return err
	}
	pf, err := bench.AppendPerfRun(out, run)
	if err != nil {
		return err
	}
	fmt.Printf("%s: run %q appended (%d runs total)\n", out, label, len(pf.Runs))
	fmt.Printf("  host: %s/%s, %d CPUs, GOMAXPROCS=%d, kernels %s (features: %s)\n",
		run.GOOS, run.GOARCH, run.NumCPU, run.GOMAXPROCS, run.KernelLevel, run.CPUFeatures)
	fmt.Printf("  sequential: %.0f pics/s (%.2f ms/picture)\n",
		run.SequentialPicsPerSec, run.SequentialMSPerPic)
	fmt.Printf("  workload: %d MBs (%d predicted, %d bidir), %d coded blocks, %d coefs\n",
		run.Work.MBs, run.Work.PredMBs, run.Work.BidirMBs, run.Work.CodedBlocks, run.Work.Coefs)
	if len(run.KernelBench) > 0 {
		fmt.Printf("  kernel ns/MB by tier:\n")
		byKernel := map[string][]bench.KernelBenchPoint{}
		var order []string
		for _, kp := range run.KernelBench {
			if _, ok := byKernel[kp.Kernel]; !ok {
				order = append(order, kp.Kernel)
			}
			byKernel[kp.Kernel] = append(byKernel[kp.Kernel], kp)
		}
		for _, k := range order {
			fmt.Printf("    %-13s", k)
			for _, kp := range byKernel[k] {
				fmt.Printf("  %s=%.0f", kp.Level, kp.NsPerMB)
			}
			fmt.Println()
		}
	}
	if run.ScalingNote != "" {
		fmt.Printf("  NOTE: %s\n", run.ScalingNote)
	}
	for _, pt := range run.Points {
		auto := ""
		if pt.Auto != "" {
			auto = "  -> " + pt.Auto
		}
		speedup := fmt.Sprintf("speedup %.2f", pt.Speedup)
		if run.GOMAXPROCS == 1 && pt.Workers > 1 {
			speedup = fmt.Sprintf("speedup %.2f [overhead-only: GOMAXPROCS=1]", pt.Speedup)
		}
		fmt.Printf("  %-15s w=%d  %8.0f pics/s  %s  (scan %.1fms busy %.1fms wait %.1fms)%s\n",
			pt.Mode, pt.Workers, pt.PicsPerSec, speedup, pt.ScanMS, pt.WorkerBusyMS, pt.WorkerWaitMS, auto)
	}
	return nil
}

// runService executes the multi-stream overload harness (internal/
// bench/service.go) and appends the measurement to the selected
// BENCH_<n>.json as a PerfRun with only the Service point set.
func runService(out, label string, workers int) error {
	if out == "" {
		out = pickBenchFile(false)
	}
	if label == "" {
		label = "service-" + time.Now().UTC().Format("20060102T150405Z")
	}
	res, err := bench.ServiceLoad(bench.ServiceConfig{Workers: workers, SinkDelay: 300 * time.Microsecond})
	if err != nil {
		return err
	}
	res.WriteText(os.Stdout)
	pf, err := bench.AppendPerfRun(out, bench.ServiceRun(label, &res.Point))
	if err != nil {
		return err
	}
	fmt.Printf("%s: service run %q appended (%d runs total)\n", out, label, len(pf.Runs))
	return nil
}

// runVLDSplit executes the intra-slice split-decode experiment
// (internal/bench/vldsplit.go) and appends the measurement to the
// selected BENCH_<n>.json as a PerfRun with only the VLDSplit point set.
func runVLDSplit(out, label string, workers int) error {
	if out == "" {
		out = pickBenchFile(false)
	}
	if label == "" {
		label = "vldsplit-" + time.Now().UTC().Format("20060102T150405Z")
	}
	res, err := bench.VLDSplit(bench.VLDSplitConfig{Workers: workers})
	if err != nil {
		return err
	}
	res.WriteText(os.Stdout)
	pf, err := bench.AppendPerfRun(out, bench.VLDSplitRun(label, &res.Point))
	if err != nil {
		return err
	}
	fmt.Printf("%s: vldsplit run %q appended (%d runs total)\n", out, label, len(pf.Runs))
	return nil
}

// runDeadline executes the EDF-vs-fair deadline study (internal/bench/
// deadline.go) and appends it to the selected BENCH_<n>.json as a
// PerfRun with only the Deadline point set. The recorded run enforces
// the tentpole's acceptance bar: the EDF arm must cut the miss rate at
// the heaviest load by at least 2x.
func runDeadline(out, label string) error {
	if out == "" {
		out = pickBenchFile(false)
	}
	if label == "" {
		label = "deadline-" + time.Now().UTC().Format("20060102T150405Z")
	}
	pt, err := bench.DeadlineStudy(bench.DeadlineConfig{RequireImprovement: 2.0})
	if pt != nil {
		pt.WriteText(os.Stdout)
	}
	if err != nil {
		return err
	}
	pf, err := bench.AppendPerfRun(out, bench.DeadlineRun(label, pt))
	if err != nil {
		return err
	}
	fmt.Printf("%s: deadline run %q appended (%d runs total)\n", out, label, len(pf.Runs))
	return nil
}

// pickBenchFile returns the BENCH_<n>.json to write: the highest-numbered
// existing file (this PR's trajectory), or the next free number when
// startNew is set or none exists yet.
func pickBenchFile(startNew bool) string {
	matches, _ := filepath.Glob("BENCH_*.json")
	max := 0
	for _, m := range matches {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(m), "BENCH_%d.json", &n); err == nil && n > max {
			max = n
		}
	}
	if max == 0 {
		return "BENCH_1.json"
	}
	if startNew {
		return fmt.Sprintf("BENCH_%d.json", max+1)
	}
	return fmt.Sprintf("BENCH_%d.json", max)
}
