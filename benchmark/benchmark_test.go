package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"mpeg2par/internal/obs"
)

// TestBenchmarkJSON holds BENCHMARK.json to the tables in metrics.go and
// workloads.go, which are what the program emits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(describeBenchmark())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("BENCHMARK.json differs from `go run ./benchmark -describe`; regenerate it")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs one short slice of every workload and the traced pass,
// on one-GOP streams, and checks the shape of what comes out: every
// metric BENCHMARK.json names is emitted once with its unit, is finite
// and in range, operations all succeed, the report ends claim-free, and
// the trace file validates. It asserts no speed: under `go test ./...`
// the host is busy with other packages. For the same reason the timing
// guards (shares of a layer, generator lateness) are not asserted here;
// the count guards are.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	set := settings{
		sliceLen:      50 * time.Millisecond,
		pacedSliceLen: 100 * time.Millisecond,
		refLen:        5 * time.Millisecond,
		setupReps:     1,
		offeredScale:  0.1, // a busy test host must still keep up
		traceDir:      t.TempDir(),
	}
	timingGuard := regexp.MustCompile(`vld_share|gen_lateness`)
	streams := map[string]*streamSet{} // the SD workloads share bytes
	for _, full := range workloads {
		w := *full
		w.tile = 1
		switch {
		case w.enc.GOPSize == 1:
			w.enc.Pictures = 4
		case w.kind == kindDecode:
			w.enc.Pictures = w.enc.GOPSize
		default:
			w.enc.Pictures = 2 * w.enc.GOPSize // the one-GOP stream probe needs a second GOP to cut at
		}
		key, _ := json.Marshal(w.enc)
		t.Run(w.name, func(t *testing.T) {
			s := streams[string(key)]
			var setups []float64
			if s == nil {
				t0 := time.Now()
				var err error
				if s, err = buildStream(&w, 1); err != nil {
					t.Fatal(err)
				}
				streams[string(key)] = s
				setups = []float64{time.Since(t0).Seconds()}
			} else {
				setups = []float64{s.encodeS}
			}

			rep, res, err := runOn(&w, s, setups, 1, 0.05, 0, set)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, rep, res, endToEndDefs)

			rep, res, err = runOn(&w, s, setups, 1, 0.2, 1, set)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range rep.Guards {
				if !timingGuard.MatchString(g) {
					t.Errorf("guard failed: %s", g)
				}
			}
			rep.Guards = nil
			res.Correct = res.Failed == 0
			checkResult(t, rep, res, perLayerDefs)

			raw, err := os.ReadFile(filepath.Join(set.traceDir, "trace_"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := obs.ValidateChromeTrace(raw); err != nil {
				t.Errorf("trace: %v", err)
			}
		})
	}
}

func checkResult(t *testing.T, rep *report, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d failures=%v", res.Correct, res.Attempted, res.Failed, rep.Failures)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		mv, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: not emitted", d.name)
			continue
		case !nameRE.MatchString(d.name):
			t.Errorf("%s: not a valid metric name", d.name)
		case mv.Unit != d.unit:
			t.Errorf("%s: unit %q, want %q", d.name, mv.Unit, d.unit)
		case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) || mv.Value < 0:
			t.Errorf("%s: value %v is not a finite non-negative number", d.name, mv.Value)
		case d.unit == "share" && mv.Value > 1:
			t.Errorf("%s: share %v outside [0,1]", d.name, mv.Value)
		case d.bound > 0 && mv.Value == 0:
			t.Errorf("%s: an end-to-end metric may never be 0", d.name)
		}
	}
	// The report is JSON and ends with the claim-free summary.
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Summary map[string]any `json:"summary"`
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if claim, ok := back.Summary["claim"]; !ok || claim != nil {
		t.Errorf("summary claim = %v, want null", claim)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles = %v, %v; Python gives 1, 3", q1, q3)
	}
}
