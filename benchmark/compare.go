package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"

	"mpeg2par/internal/kernels"
)

// runSetFile is a set of runs: every workload run several times, each
// with its own seed, the way the driver measures one commit. Two sets
// are comparable only when their host and frozen fields match.
type runSetFile struct {
	Seed        int64   `json:"seed"`
	Runs        int     `json:"runs"`
	Seconds     float64 `json:"seconds"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Kernels     string  `json:"kernels"`
	CPUFeatures string  `json:"cpu_features"`

	RefNominal       map[string]float64 `json:"ref_nominal"`
	PacedOfferedPics float64            `json:"svc_paced_offered_pics_per_s"`

	// Values[workload][metric] holds one value per run, in run order.
	Values    map[string]map[string][]float64 `json:"values"`
	Attempted int                             `json:"attempted"`
	Failed    int                             `json:"failed"`
	Claim     *string                         `json:"claim"`
}

// runSet runs every workload `runs` times by re-executing this program,
// one process per run as the driver does, round-robin over the workloads
// so that a slow minute of the host is spread over all of them.
func runSet(seed int64, seconds float64, runs int) (*runSetFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &runSetFile{
		Seed: seed, Runs: runs, Seconds: seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernels: kernels.Describe(), CPUFeatures: kernels.CPUFeatures(),
		RefNominal:       map[string]float64{"n1": refNominal[1], "n2": refNominal[2]},
		PacedOfferedPics: pacedOfferedPicsPerS,
		Values:           map[string]map[string][]float64{},
	}
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output() // waits for the child to exit
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.name, seed+int64(i), err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return nil, fmt.Errorf("%s seed %d: result line: %w", w.name, seed+int64(i), err)
			}
			set.Attempted += res.Attempted
			set.Failed += res.Failed
			if set.Values[w.name] == nil {
				set.Values[w.name] = map[string][]float64{}
			}
			for name, mv := range res.Metrics {
				set.Values[w.name][name] = append(set.Values[w.name][name], mv.Value)
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %-18s pics_per_s %.1f\n", i+1, runs, w.name, res.Metrics["pics_per_s"].Value)
		}
	}
	return set, nil
}

// verdict of one (metric, workload) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // the spread between runs is wider than the bound
)

// compareSets prints, per (metric, workload), both medians with
// quartiles, the ratio b/a, and the verdict by the metric's bound. It
// returns how many pairs regressed and how many disagree by more than
// the bound in either direction.
func compareSets(a, b *runSetFile) (regressed, disagree int) {
	fmt.Printf("%-18s %-22s %12s %23s %12s %23s %8s  %s\n",
		"workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3", "b/a", "verdict")
	for _, w := range workloads {
		for _, d := range endToEndDefs {
			av, bv := a.Values[w.name][d.name], b.Values[w.name][d.name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			am, bm := median(av), median(bv)
			aq1, aq3 := quartiles(av)
			bq1, bq3 := quartiles(bv)
			r := ratio(bm, am)
			worse := r - 1 // share of a's median by which b is worse
			if d.better == "higher" {
				worse = 1 - r
			}
			v := verdictOK
			switch {
			case worse <= d.bound:
			case allBetter(bv, av, d.better):
			case (aq3-aq1)/am > d.bound || (bq3-bq1)/bm > d.bound:
				v = verdictUnresolved
			default:
				v = verdictRegressed
				regressed++
			}
			if r-1 > d.bound || 1-r > d.bound {
				disagree++
			}
			fmt.Printf("%-18s %-22s %12.4f %11.4f..%-10.4f %12.4f %11.4f..%-10.4f %8.4f  %s (base a=%.4f %s, bound %.2f)\n",
				w.name, d.name, am, aq1, aq3, bm, bq1, bq3, r, v, am, d.unit, d.bound)
		}
	}
	return regressed, disagree
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(b, a []float64, better string) bool {
	for _, x := range b {
		for _, y := range a {
			if (better == "higher" && x <= y) || (better == "lower" && x >= y) {
				return false
			}
		}
	}
	return true
}

func readSet(path string) (*runSetFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSetFile
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles is -compare: exit status 1 when a pair regressed.
func compareFiles(pathA, pathB string) int {
	a, err := readSet(pathA)
	must(err)
	b, err := readSet(pathB)
	must(err)
	if a.NProc != b.NProc || a.Kernels != b.Kernels || a.Seconds != b.Seconds ||
		a.PacedOfferedPics != b.PacedOfferedPics || fmt.Sprint(a.RefNominal) != fmt.Sprint(b.RefNominal) {
		fmt.Println("warning: the two sets' manifests differ; the comparison is not like for like")
	}
	regressed, _ := compareSets(a, b)
	if regressed > 0 {
		return 1
	}
	return 0
}

// selfCheck is -selfcheck: two sets of the same code back to back must
// agree within every metric's own bound.
func selfCheck(seed int64, seconds float64, runs int, out string) int {
	a, err := runSet(seed, seconds, runs)
	must(err)
	b, err := runSet(seed, seconds, runs)
	must(err)
	if out != "" {
		must(writeJSONFile(out+".a.json", a))
		must(writeJSONFile(out+".b.json", b))
	}
	_, disagree := compareSets(a, b)
	if disagree > 0 || a.Failed+b.Failed > 0 {
		fmt.Printf("selfcheck: %d pairs disagree by more than their bound, %d operations failed\n", disagree, a.Failed+b.Failed)
		return 1
	}
	fmt.Println("selfcheck: every end-to-end pair agrees within its bound")
	return 0
}
