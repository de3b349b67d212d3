package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/kernels"
	"mpeg2par/internal/simsched"
)

// This file is the intra-slice split-decode experiment: a stream coded
// with one tall slice per picture has no slice-level parallelism at
// all — the improved slice decoder degenerates to sequential. With a
// split index the decoder fans each slice out as macroblock-row
// segments, restoring the parallelism the bitstream geometry removed.
// The experiment profiles real per-task costs on a one-worker run
// (unsplit vs indexed-split) and replays them in the deterministic
// simulator, so the speedup is meaningful on any host.

// VLDSplitConfig parameterizes the split-decode experiment.
type VLDSplitConfig struct {
	Width, Height int // picture size (default 352x240)
	GOPSize       int // pictures per GOP (default 13)
	Pictures      int // stream length (default 2 GOPs)
	BitRate       int // encoder bit rate (default 5 Mb/s)
	Workers       int // simulated worker count (default 4)
	Parts         int // segments per split slice (default: what a pool of Workers cuts, core.TaskGrain rows each)
}

func (c VLDSplitConfig) withDefaults() VLDSplitConfig {
	if c.Width == 0 {
		c.Width, c.Height = 352, 240
	}
	if c.GOPSize == 0 {
		c.GOPSize = 13
	}
	if c.Pictures == 0 {
		c.Pictures = 2 * c.GOPSize
	}
	if c.BitRate == 0 {
		c.BitRate = 5_000_000
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Parts == 0 {
		// The profile runs on one worker; name the segment count the
		// simulated pool's own grain would give.
		rows := (c.Height + 15) / 16
		grain := core.TaskGrain(rows, c.Workers)
		c.Parts = (rows + grain - 1) / grain
	}
	return c
}

// VLDSplitPoint is the structured result, recorded in BENCH_<n>.json.
type VLDSplitPoint struct {
	Width    int `json:"width"`
	Height   int `json:"height"`
	Pictures int `json:"pictures"`
	Workers  int `json:"workers"`
	Parts    int `json:"parts"`

	// The split index built over the stream.
	IndexSlices int `json:"index_slices"`
	IndexPoints int `json:"index_points"`
	IndexBytes  int `json:"index_bytes"`

	// Simulated makespans of the profiled costs at Workers workers:
	// unsplit (one tall slice per picture — no parallelism to find) vs
	// indexed split (each slice fanned into Parts segments).
	UnsplitMakespanMS float64 `json:"unsplit_makespan_ms"`
	SplitMakespanMS   float64 `json:"split_makespan_ms"`
	// Speedup is unsplit/split — the parallelism the index recovered.
	Speedup float64 `json:"split_speedup"`

	// Split-decode counters from the indexed profile run.
	SlicesSplit  int `json:"slices_split"`
	SegmentsRun  int `json:"segments_run"`
	VerifyHits   int `json:"verify_hits"`
	VerifyMisses int `json:"verify_misses"`
	Fallbacks    int `json:"fallbacks"`

	// Speculative pass (no index): guessed resync points either verify
	// or fall back; both outcomes are bit-exact by construction.
	SpecSegments     int `json:"spec_segments"`
	SpecVerifyHits   int `json:"spec_verify_hits"`
	SpecVerifyMisses int `json:"spec_verify_misses"`
	SpecFallbacks    int `json:"spec_fallbacks"`

	// BitExact reports that the indexed split decode reproduced the
	// sequential decoder's frames exactly.
	BitExact bool `json:"bit_exact"`
}

// VLDSplitResult carries the point plus its rendering.
type VLDSplitResult struct {
	Point VLDSplitPoint `json:"vldsplit"`
}

// VLDSplit runs the split-decode experiment.
func VLDSplit(cfg VLDSplitConfig) (*VLDSplitResult, error) {
	cfg = cfg.withDefaults()
	rows := (cfg.Height + 15) / 16
	enc, err := encoder.EncodeSequence(encoder.Config{
		Width:        cfg.Width,
		Height:       cfg.Height,
		Pictures:     cfg.Pictures,
		GOPSize:      cfg.GOPSize,
		BitRate:      cfg.BitRate,
		FrameRate:    30,
		RowsPerSlice: rows, // one slice per picture: zero slice-level parallelism
	}, frame.NewSynth(cfg.Width, cfg.Height))
	if err != nil {
		return nil, fmt.Errorf("bench: vldsplit stream: %w", err)
	}
	m, err := core.Scan(enc.Data)
	if err != nil {
		return nil, err
	}
	ix, err := core.BuildIndexScanned(enc.Data, m)
	if err != nil {
		return nil, err
	}
	raw, err := ix.MarshalBinary()
	if err != nil {
		return nil, err
	}
	pt := VLDSplitPoint{
		Width: cfg.Width, Height: cfg.Height, Pictures: cfg.Pictures,
		Workers: cfg.Workers, Parts: cfg.Parts,
		IndexSlices: ix.Slices(), IndexPoints: ix.Points(), IndexBytes: len(raw),
	}

	// Sequential oracle frames, for the bit-exactness record.
	var want []*frame.Frame
	if _, err := core.Decode(enc.Data, core.Options{
		Mode: core.ModeSequential, Workers: 1,
		Sink: func(f *frame.Frame) { want = append(want, f.Clone()) },
	}); err != nil {
		return nil, err
	}

	// Profile unsplit and indexed-split costs with one worker (per-task
	// medians, profileSliceTasks) and replay them in the simulator at the
	// configured worker count.
	unsplit, _, err := profileSliceTasks(enc.Data, core.Options{})
	if err != nil {
		return nil, err
	}
	split, splitSt, err := profileSliceTasks(enc.Data, core.Options{SplitIndex: ix, SplitParts: cfg.Parts})
	if err != nil {
		return nil, err
	}
	sst := splitSt.Split
	simU := simsched.SimulateSlices(unsplit, cfg.Workers, true)
	simS := simsched.SimulateSlices(split, cfg.Workers, true)
	pt.UnsplitMakespanMS = ms(simU.Makespan)
	pt.SplitMakespanMS = ms(simS.Makespan)
	pt.Speedup = safeDiv(float64(simU.Makespan), float64(simS.Makespan))
	pt.SlicesSplit = sst.SlicesSplit
	pt.SegmentsRun = sst.SegmentsRun
	pt.VerifyHits = sst.VerifyHits
	pt.VerifyMisses = sst.VerifyMisses
	pt.Fallbacks = sst.Fallbacks

	// Bit-exactness of an indexed split decode at the simulated worker
	// count against the sequential oracle.
	var got []*frame.Frame
	if _, err := core.Decode(enc.Data, core.Options{
		Mode: core.ModeSliceImproved, Workers: cfg.Workers,
		SplitIndex: ix, SplitParts: cfg.Parts,
		Sink: func(f *frame.Frame) { got = append(got, f.Clone()) },
	}); err != nil {
		return nil, err
	}
	pt.BitExact = len(got) == len(want)
	for i := range want {
		if !pt.BitExact || !want[i].Equal(got[i]) {
			pt.BitExact = false
			break
		}
	}

	// Speculative pass: no index, guessed resync points. Counters only —
	// the verify rule makes both outcomes bit-exact.
	spec, err := core.Decode(enc.Data, core.Options{
		Mode: core.ModeSliceImproved, Workers: cfg.Workers,
		SpeculativeSplit: true, SplitParts: cfg.Parts,
	})
	if err != nil {
		return nil, err
	}
	pt.SpecSegments = spec.Split.SegmentsRun
	pt.SpecVerifyHits = spec.Split.VerifyHits
	pt.SpecVerifyMisses = spec.Split.VerifyMisses
	pt.SpecFallbacks = spec.Split.Fallbacks

	return &VLDSplitResult{Point: pt}, nil
}

// WriteText renders the experiment result.
func (r *VLDSplitResult) WriteText(w io.Writer) {
	p := &r.Point
	fmt.Fprintf(w, "== intra-slice split decode (%dx%d, %d pictures, one slice per picture) ==\n",
		p.Width, p.Height, p.Pictures)
	fmt.Fprintf(w, "index: %d slices, %d points, %d bytes\n",
		p.IndexSlices, p.IndexPoints, p.IndexBytes)
	fmt.Fprintf(w, "simulated at %d workers: unsplit %.2f ms, split(%d) %.2f ms -> speedup %.2fx\n",
		p.Workers, p.UnsplitMakespanMS, p.Parts, p.SplitMakespanMS, p.Speedup)
	fmt.Fprintf(w, "indexed run: %d slices split, %d segments, %d/%d verified, %d fallbacks, bit-exact=%v\n",
		p.SlicesSplit, p.SegmentsRun, p.VerifyHits, p.VerifyHits+p.VerifyMisses, p.Fallbacks, p.BitExact)
	fmt.Fprintf(w, "speculative run: %d segments, %d hits, %d misses, %d fallbacks (bit-exact either way)\n",
		p.SpecSegments, p.SpecVerifyHits, p.SpecVerifyMisses, p.SpecFallbacks)
}

// VLDSplitRun wraps the point as a PerfRun for BENCH_<n>.json.
func VLDSplitRun(label string, pt *VLDSplitPoint) *PerfRun {
	return &PerfRun{
		Label:       label,
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUFeatures: kernels.CPUFeatures(),
		KernelLevel: kernels.Describe(),
		VLDSplit:    pt,
	}
}
