package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/obs"
	"mpeg2par/internal/simsched"
)

// SchedCompare measures what the cost-model scheduler's packing buys on a
// stream with a skewed cost distribution. Per-slice costs are profiled
// from the real single-worker decode and replayed in the deterministic
// simulator under P workers with each picture's slices handed out in
// slice order (FIFO) versus longest-first by byte size (LPT) — byte order,
// not measured-cost order, because bytes are the proxy the real scheduler
// packs by. GOP mode runs its groups in stream order whatever the packing
// and has one row. A live traced decode of every variant runs alongside and its
// Timeline.Summary figures are reported too; on a single-CPU host those
// only measure time-slicing, so the simulated columns are the
// authoritative ones (the same reason the paper used TangoLite beside its
// SGI Challenge).

// SchedConfig describes the packing-comparison workload.
type SchedConfig struct {
	Width, Height int // picture size (default 704x480, the paper's mid resolution)
	GOPSize       int // pictures per GOP (default 6, so GOPs outnumber workers)
	Pictures      int // stream length (default 6 GOPs)
	Workers       int // worker count (default 4)
	Repeats       int // timed repetitions of the live decodes, median kept (default 3)
}

func (c SchedConfig) withDefaults() SchedConfig {
	if c.Width == 0 {
		c.Width, c.Height = 704, 480
	}
	if c.GOPSize == 0 {
		c.GOPSize = 6
	}
	if c.Pictures == 0 {
		c.Pictures = 6 * c.GOPSize
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	return c
}

// SchedPoint is one (mode, packing) comparison row.
type SchedPoint struct {
	Mode    string `json:"mode"`
	Packing string `json:"packing"`
	Workers int    `json:"workers"`

	// Simulated execution of the profiled task costs (authoritative on a
	// single-CPU host).
	SimPicsPerSec float64 `json:"sim_pics_per_sec"`
	SimMakespanMS float64 `json:"sim_makespan_ms"`
	SimImbalance  float64 `json:"sim_imbalance"`

	// Live traced decode (median of Repeats), from Timeline.Summary.
	PicsPerSec      float64 `json:"pics_per_sec"`
	WallMS          float64 `json:"wall_ms"`
	ImbalanceFactor float64 `json:"imbalance_factor"`
	SyncOverhead    float64 `json:"sync_overhead"`

	// Auto records ModeAuto's resolved choice; empty for fixed modes.
	Auto string `json:"auto_choice,omitempty"`
}

// SchedResult is one complete packing comparison.
type SchedResult struct {
	Stream struct {
		Width    int `json:"width"`
		Height   int `json:"height"`
		GOPSize  int `json:"gop_size"`
		Pictures int `json:"pictures"`
		Bytes    int `json:"bytes"`
	} `json:"stream"`
	// SliceSkew and GOPSkew are max/mean task bytes — how lopsided the
	// stream's slices (which packing has to balance) and groups are.
	// CostSkew is max/mean of the profiled (real) per-GOP decode costs.
	SliceSkew float64      `json:"slice_skew"`
	GOPSkew   float64      `json:"gop_skew"`
	CostSkew  float64      `json:"cost_skew"`
	Points    []SchedPoint `json:"points"`
}

// skewSource wraps the reference scene and overlays frame-varying random
// noise on a bottom band whose height grows over the stream: noise that
// moves with n defeats both intra prediction and motion compensation, so
// a noisy macroblock row costs several times a clean one to decode, and
// the per-picture (and per-GOP) decode cost ramps up several-fold from
// the first GOP to the last. Ramping the band height rather than the
// noise amplitude matters: amplitude saturates the VLD long before it
// moves the reconstruction cost, while extra noisy rows scale the real
// work linearly. The result is the adversarial picture for FIFO packing —
// its heavy slices sit at the end of slice order, so a worker starts them
// last and straggles — and exactly the one LPT exists to fix.
type skewSource struct {
	src      *frame.Synth
	pictures int // stream length, for the band-height ramp
}

func (s *skewSource) Frame(n int) *frame.Frame {
	f := s.src.Frame(n)
	// Band ramp: the first picture is clean, the last is ~90% noise.
	bandFrac := 0.9 * float64(n) / float64(s.pictures-1)
	start := int(float64(f.Height) * (1 - bandFrac))
	for y := start; y < f.CodedH; y++ {
		row := f.Y[y*f.YStride : y*f.YStride+f.CodedW]
		for x := range row {
			h := (uint64(y)*0x9E3779B97F4A7C15 + uint64(x)*0xBF58476D1CE4E5B9 + uint64(n)*0x94D049BB133111EB)
			h ^= h >> 29
			h *= 0xD6E8FEB86659FD93
			h ^= h >> 32
			row[x] = uint8(h)
		}
	}
	return f
}

// SchedCompare encodes the skewed stream, profiles its real task costs,
// and compares FIFO against LPT packing in the simulator and in live
// traced decodes, plus a ModeAuto row.
func SchedCompare(cfg SchedConfig) (*SchedResult, error) {
	cfg = cfg.withDefaults()
	enc, err := encoder.EncodeSequence(encoder.Config{
		Width:     cfg.Width,
		Height:    cfg.Height,
		Pictures:  cfg.Pictures,
		GOPSize:   cfg.GOPSize,
		BitRate:   12_000_000,
		FrameRate: 30,
	}, &skewSource{src: frame.NewSynth(cfg.Width, cfg.Height), pictures: cfg.Pictures})
	if err != nil {
		return nil, fmt.Errorf("bench: sched stream: %w", err)
	}
	m, err := core.Scan(enc.Data)
	if err != nil {
		return nil, fmt.Errorf("bench: sched scan: %w", err)
	}

	res := &SchedResult{}
	res.Stream.Width = cfg.Width
	res.Stream.Height = cfg.Height
	res.Stream.GOPSize = cfg.GOPSize
	res.Stream.Pictures = cfg.Pictures
	res.Stream.Bytes = len(enc.Data)

	// Task byte sizes — what the scheduler packs by.
	gopBytes := make([]int64, len(m.GOPs))
	var sliceBytes [][]int64 // per picture in decode order
	for g := range m.GOPs {
		gopBytes[g] = int64(m.GOPs[g].End - m.GOPs[g].Offset)
		for pi := range m.GOPs[g].Pictures {
			pr := &m.GOPs[g].Pictures[pi]
			sb := make([]int64, len(pr.Slices))
			for si := range pr.Slices {
				sb[si] = int64(pr.Slices[si].Bytes)
			}
			sliceBytes = append(sliceBytes, sb)
		}
	}
	res.GOPSkew = skewOf(gopBytes)
	var flat []int64
	for _, sb := range sliceBytes {
		flat = append(flat, sb...)
	}
	res.SliceSkew = skewOf(flat)

	// Profile real task costs at one worker (the discipline of the figure
	// experiments, see profilePasses).
	gopTasks, _, err := profileGOPTasks(enc.Data, m)
	if err != nil {
		return nil, err
	}
	costs := make([]int64, len(gopTasks))
	for i, t := range gopTasks {
		costs[i] = int64(t.Cost)
	}
	res.CostSkew = skewOf(costs)
	slicePics, err := profileSlicePics(enc.Data, cfg.Pictures)
	if err != nil {
		return nil, err
	}

	type variant struct {
		mode    core.Mode
		packing core.Packing
	}
	variants := []variant{
		{core.ModeGOP, core.PackFIFO},
		{core.ModeSliceImproved, core.PackFIFO},
		{core.ModeSliceImproved, core.PackLPT},
		{core.ModeAuto, core.PackLPT},
	}

	// Simulated executions: pack by bytes, replay measured costs.
	simulate := func(mode core.Mode, packing core.Packing, workers int) simsched.Result {
		if mode == core.ModeGOP {
			return simsched.SimulateGOP(gopTasks, workers)
		}
		return simsched.SimulateSlices(orderSlices(slicePics, sliceBytes, packing == core.PackLPT), workers, true)
	}

	type rep struct {
		st  *core.Stats
		sum *obs.Summary
	}
	reps := make([][]rep, len(variants))
	// Live rounds are interleaved across variants (one warm-up round,
	// then the timed rounds) so slow drift — CPU frequency ramping, cache
	// warmth — biases every variant equally instead of whichever ran
	// first.
	for round := 0; round <= cfg.Repeats; round++ {
		for vi, v := range variants {
			opt := core.Options{Mode: v.mode, Workers: cfg.Workers, Packing: v.packing}
			if round > 0 {
				opt.Obs = obs.New(0)
			}
			st, err := core.Decode(enc.Data, opt)
			if err != nil {
				return nil, fmt.Errorf("bench: sched %s/%s: %w", v.mode, v.packing, err)
			}
			if round > 0 {
				reps[vi] = append(reps[vi], rep{st, opt.Obs.Snapshot().Summary()})
			}
		}
	}
	for vi, v := range variants {
		rs := reps[vi]
		sort.Slice(rs, func(i, j int) bool { return rs[i].st.Wall < rs[j].st.Wall })
		r := rs[(len(rs)-1)/2]
		pt := SchedPoint{
			Mode:            v.mode.String(),
			Packing:         v.packing.String(),
			Workers:         cfg.Workers,
			PicsPerSec:      r.st.PicturesPerSecond(),
			WallMS:          ms(r.st.Wall),
			ImbalanceFactor: r.sum.ImbalanceFactor,
			SyncOverhead:    r.sum.SyncOverhead,
		}
		simMode, simWorkers := v.mode, cfg.Workers
		if r.st.Auto != nil {
			pt.Auto = fmt.Sprintf("%s x%d", r.st.Mode, r.st.Workers)
			simMode, simWorkers = r.st.Mode, r.st.Workers
		}
		if simMode == core.ModeGOP || simMode == core.ModeSliceImproved {
			sr := simulate(simMode, v.packing, simWorkers)
			pt.SimMakespanMS = ms(sr.Makespan)
			pt.SimPicsPerSec = safeRate(float64(cfg.Pictures), sr.Makespan)
			if avg := sr.AvgBusy(); avg > 0 {
				pt.SimImbalance = float64(sr.MaxBusy()) / float64(avg)
			}
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// orderSlices reorders each picture's slice costs longest-first by byte
// size (or returns the stream-order profile unchanged).
func orderSlices(pics []simsched.SimPicture, sliceBytes [][]int64, lpt bool) []simsched.SimPicture {
	if !lpt {
		return pics
	}
	out := append([]simsched.SimPicture(nil), pics...)
	for k := range out {
		sb := sliceBytes[k%len(sliceBytes)]
		idx := make([]int, len(out[k].SliceCosts))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return sb[idx[a]] > sb[idx[b]] })
		costs := make([]time.Duration, len(idx))
		for i, j := range idx {
			costs[i] = out[k].SliceCosts[j]
		}
		out[k].SliceCosts = costs
	}
	return out
}

// skewOf returns max/mean of vs (0 for an empty or all-zero input).
func skewOf(vs []int64) float64 {
	var max, sum int64
	for _, v := range vs {
		if v > max {
			max = v
		}
		sum += v
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(vs)) / float64(sum)
}

// WriteText renders the comparison for a terminal.
func (r *SchedResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "packing comparison: %dx%d, %d pictures, %d-picture GOPs, %d bytes\n",
		r.Stream.Width, r.Stream.Height, r.Stream.Pictures, r.Stream.GOPSize, r.Stream.Bytes)
	fmt.Fprintf(w, "  skew (max/mean): GOP bytes %.2fx, slice bytes %.2fx, profiled GOP cost %.2fx\n",
		r.GOPSkew, r.SliceSkew, r.CostSkew)
	fmt.Fprintf(w, "  %-15s %-7s %3s  %s  %s\n",
		"mode", "packing", "w", "| sim pics/s  makespan  imbalance", "| live pics/s  imbalance   sync")
	for _, pt := range r.Points {
		auto := ""
		if pt.Auto != "" {
			auto = "  -> " + pt.Auto
		}
		fmt.Fprintf(w, "  %-15s %-7s %3d  | %10.1f %8.1fms %9.3f  | %11.1f %10.3f %5.1f%%%s\n",
			pt.Mode, pt.Packing, pt.Workers,
			pt.SimPicsPerSec, pt.SimMakespanMS, pt.SimImbalance,
			pt.PicsPerSec, pt.ImbalanceFactor, 100*pt.SyncOverhead, auto)
	}
}

// WriteJSON emits the structured comparison.
func (r *SchedResult) WriteJSON(w io.Writer) error {
	e := json.NewEncoder(w)
	e.SetIndent("", "  ")
	return e.Encode(r)
}
