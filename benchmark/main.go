// Command benchmark is the repository's benchmark: the one program every
// later performance claim is measured with. BENCHMARK.json at the root of
// the repository names its command, workloads and metrics; README.md in
// this directory defines them.
//
//	go run ./benchmark --workload seq-ipb-sd --seed 1 --seconds 10 --trace 0
//
// runs one workload for about the given time and prints, as the last
// line of standard output, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics from the traced pass (--trace 1).
// It verifies decoded output against the sequential oracle and exits
// non-zero on any correctness failure. It claims no gain.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"mpeg2par/internal/kernels"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, in the driver's format.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// spread is a metric's median over the run's slices with the quartiles
// and count beside it.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// manifest says what a result was measured on and with; two results are
// comparable only when their manifests match.
type manifest struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        int     `json:"trace"`
	StreamSHA256 string  `json:"stream_sha256"`
	StreamBytes  int     `json:"stream_bytes"`
	Pictures     int     `json:"pictures"`
	SlicesPerPic float64 `json:"slices_per_picture"`
	SceneOffset  int     `json:"scene_offset"`

	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Kernels     string `json:"kernels"`
	CPUFeatures string `json:"cpu_features"`

	SliceMS          float64            `json:"slice_ms"`
	RefMS            float64            `json:"ref_ms"`
	Slices           int                `json:"slices"`
	SetupReps        int                `json:"setup_reps"`
	RefNominal       map[string]float64 `json:"ref_nominal"`
	PacedOfferedPics float64            `json:"svc_paced_offered_pics_per_s"`
}

// report is the full account of one run, printed before the result line
// and written to -out.
type report struct {
	Manifest manifest          `json:"manifest"`
	Metrics  map[string]spread `json:"metrics"`
	Failures []string          `json:"failures,omitempty"`
	Guards   []string          `json:"guards_failed,omitempty"`
	Summary  summary           `json:"summary"`
}

// summary closes the report. The benchmark measures; it never claims.
type summary struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Claim     *string `json:"claim"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Int64("seed", 1, "seed of the scene, arrival schedule and fault positions")
		seconds   = flag.Float64("seconds", 10, "how long to measure")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and per-layer metrics")
		out       = flag.String("out", "", "also write the full report (or, with -runs, the set) to this file")
		list      = flag.Bool("list", false, "print the workloads and exit")
		describe  = flag.Bool("describe", false, "print BENCHMARK.json as this program defines it and exit")
		runs      = flag.Int("runs", 0, "run every workload this many times with seeds seed, seed+1, ... and write the set to -out")
		selfcheck = flag.Bool("selfcheck", false, "run two sets back to back and fail if an end-to-end pair disagrees by more than its bound")
		compare   = flag.Bool("compare", false, "compare two set files: benchmark -compare a.json b.json")
	)
	flag.Parse()
	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-18s %s\n", w.name, workloadWhy[w.name])
		}
	case *describe:
		must(json.NewEncoder(os.Stdout).Encode(describeBenchmark()))
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *selfcheck:
		os.Exit(selfCheck(*seed, *seconds, max(*runs, 5), *out))
	case *runs > 0:
		set, err := runSet(*seed, *seconds, *runs)
		must(err)
		must(writeJSONFile(*out, set))
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal("unknown workload %q (try -list)", *name)
		}
		rep, res, err := runWorkload(w, *seed, *seconds, *trace, defaultSettings)
		must(err)
		if *out != "" {
			must(writeJSONFile(*out, rep))
		}
		printReport(rep, res)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func must(err error) {
	if err != nil {
		fatal("%v", err)
	}
}

func writeJSONFile(path string, v any) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport writes the report, then the result as the last line.
func printReport(rep *report, res *result) {
	b, err := json.MarshalIndent(rep, "", " ")
	must(err)
	fmt.Println(string(b))
	line, err := json.Marshal(res)
	must(err)
	fmt.Println(string(line))
}

// runWorkload is one run of the benchmark: set-up (repeated, median
// reported), an untimed verifying warm-up, then either the timed slices
// with tracing off or the traced pass, then a verifying operation again.
func runWorkload(w *workload, seed int64, seconds float64, trace int, set settings) (*report, *result, error) {
	reps := set.setupReps
	if trace != 0 {
		reps = 1 // the traced pass reports no set-up time
	}
	// Set-up is timed like a slice: bracketed by the reference loop (the
	// encoder runs on one thread) and scaled to the nominal host speed.
	// Short set-ups repeat until their median has something to stand on.
	var s *streamSet
	var setups []float64
	ref := newRefLoop(1)
	prev := ref.run(1, set.refLen)
	begin := time.Now()
	for i := 0; i < reps || (trace == 0 && i < 3*reps && time.Since(begin) < 2*time.Second); i++ {
		t0 := time.Now()
		var err error
		if s, err = buildStream(w, seed); err != nil {
			return nil, nil, err
		}
		d := time.Since(t0).Seconds()
		after := ref.run(1, set.refLen)
		setups = append(setups, d*((prev+after)/2)/refNominal[1])
		prev = after
	}
	return runOn(w, s, setups, seed, seconds, trace, set)
}

// runOn is runWorkload after set-up, over a stream already built.
func runOn(w *workload, s *streamSet, setups []float64, seed int64, seconds float64, trace int, set settings) (*report, *result, error) {
	r := newRunner(w, s, seed, set)
	defer r.close()
	r.warmUp()

	rep := &report{Metrics: map[string]spread{}}
	var slices int
	if trace == 0 {
		sl, heap := r.measure(time.Duration(seconds * float64(time.Second)))
		slices = len(sl)
		endToEnd(w, sl, heap, setups, rep.Metrics)
	} else {
		guards, err := r.tracedPass(time.Duration(seconds*float64(time.Second)), rep.Metrics)
		if err != nil {
			return nil, nil, err
		}
		rep.Guards = guards
	}
	r.verifyOnce()
	r.close()

	rep.Manifest = manifest{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		StreamSHA256: s.sha256, StreamBytes: len(s.data), Pictures: len(s.oracle),
		SlicesPerPic: s.slicesPerPic, SceneOffset: s.sceneOffset,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernels: kernels.Describe(), CPUFeatures: kernels.CPUFeatures(),
		SliceMS: float64(r.sliceLen()) / 1e6, RefMS: float64(set.refLen) / 1e6,
		Slices: slices, SetupReps: len(setups),
		RefNominal:       map[string]float64{"n1": refNominal[1], "n2": refNominal[2]},
		PacedOfferedPics: pacedOfferedPicsPerS * set.offeredScale,
	}
	rep.Failures = r.failures
	correct := r.failed == 0 && len(rep.Guards) == 0
	rep.Summary = summary{Correct: correct, Attempted: r.attempted, Failed: r.failed}

	defs := endToEndDefs
	if trace != 0 {
		defs = perLayerDefs
	}
	res := &result{Correct: correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		sp, ok := rep.Metrics[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(sp.Median) || math.IsInf(sp.Median, 0) {
			return nil, nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: sp.Median, Unit: d.unit}
	}
	return rep, res, nil
}

// endToEnd reduces the slices to the end-to-end metrics: each is the
// median over slices of the per-slice value, throughput and latency
// scaled to the nominal host speed by the slice's own reference
// brackets.
func endToEnd(w *workload, sl []sliceStats, heap, setups []float64, out map[string]spread) {
	nominal := refNominal[w.refGoroutines()]
	var pics, raw, p50, p90, refs []float64
	for i := range sl {
		s := &sl[i]
		k := nominal / s.refMean() // > 1 when the host ran slow
		rate := float64(s.pics) / s.wall.Seconds()
		raw = append(raw, rate)
		if w.kind == kindPaced {
			// An open loop delivers what it is offered, and the offer
			// was stretched by the slice's hostK: scaling by the same
			// factor gives the rate in nominal-host time.
			pics = append(pics, rate*s.hostK)
		} else {
			pics = append(pics, rate*k)
		}
		p50 = append(p50, s.latP50/k)
		p90 = append(p90, s.latP90/k)
		refs = append(refs, s.refMean())
	}
	put(out, "pics_per_s", pics)
	put(out, "frame_latency_p50_ms", p50)
	put(out, "frame_latency_p90_ms", p90)
	put(out, "peak_heap_mb", heap)
	put(out, "setup_s", setups)
	// Beside the normalised figures, so the effect of normalising is on
	// record in every report.
	put(out, "host.raw_pics_per_s", raw)
	put(out, fmt.Sprintf("host.ref_passes_per_s.n%d", w.refGoroutines()), refs)
}

// put files the median and quartiles of xs under name.
func put(out map[string]spread, name string, xs []float64) {
	q1, q3 := quartiles(xs)
	out[name] = spread{Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Unit: unitOf(name)}
}

// put1 files a single value.
func put1(out map[string]spread, name string, v float64) { put(out, name, []float64{v}) }
