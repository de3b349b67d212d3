package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/kernels"
	"mpeg2par/internal/sched"
	"mpeg2par/internal/server"
)

// The deadline study: the same overloaded fleet, once under PR 8's
// weighted-fair dispatch with slack actions frozen (the baseline arm)
// and once under EDF with the slack predictor live (plan-time shedding
// of already-doomed frames). The claim under test is the tentpole's: at the heaviest load
// the EDF arm's deadline-miss rate is at least half cut — not because
// EDF conjures capacity, but because shedding a frame the cost model
// already knows will miss is cheaper than decoding it late, and the
// freed time keeps the survivors on budget. Surviving frames must stay
// bit-exact against a sequential oracle: the study decodes every frame
// checksum and compares streams that shed nothing.

// DeadlineConfig shapes the study. The zero value is usable.
type DeadlineConfig struct {
	Workers int   // pool size (default 4)
	Loads   []int // concurrent-stream counts, ascending (default 16, 32, 64)

	// Per-stream synthetic source (defaults 160x128, 32 pictures, GOP 4
	// — IBBP with the encoder's default M=3, so shedding has B pictures
	// to take).
	Width, Height, Pictures, GOPSize int

	// Deadline is the per-frame budget. Zero derives one from the
	// calibration decode: 8x the measured per-picture cost — tight
	// enough that the heaviest load misses under fair dispatch, loose
	// enough that the lightest mostly holds, on any host speed.
	Deadline    time.Duration
	MaxInFlight int // scan-ahead bound per stream (default 2)

	// Overcommit sizes the paced arrival rate: streams are paced so that
	// at the heaviest load their aggregate demand is Overcommit x the
	// measured decode capacity (default 1.4 — a sustained overload no
	// amount of scheduling can serve in full, which is exactly when
	// shedding doomed frames is supposed to pay). Lighter loads scale
	// down proportionally. Pacing makes the study a steady-state
	// real-time workload rather than a batch drain where every early
	// frame is doomed in both arms.
	Overcommit float64

	// Repeats runs every cell this many times and keeps the
	// median-miss-rate repeat (default 3). A time-sliced host makes any
	// single overload run noisy; the median is the honest middle, not
	// the luckiest draw.
	Repeats int

	// RequireImprovement, when > 0, fails the study unless the
	// fair/EDF miss-rate ratio at the heaviest load reaches it (the
	// recorded BENCH run asserts 2.0; the CI smoke passes 0).
	RequireImprovement float64
}

func (c DeadlineConfig) withDefaults() DeadlineConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if len(c.Loads) == 0 {
		c.Loads = []int{16, 32, 64}
	}
	if c.Width <= 0 {
		c.Width = 160
	}
	if c.Height <= 0 {
		c.Height = 128
	}
	if c.Pictures <= 0 {
		c.Pictures = 32
	}
	if c.GOPSize <= 0 {
		c.GOPSize = 4
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	if c.Overcommit <= 0 {
		c.Overcommit = 2.0
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	return c
}

// DeadlineCell is one (load, dispatch arm) measurement.
type DeadlineCell struct {
	Streams  int    `json:"streams"`
	Dispatch string `json:"dispatch"` // "fair" (slack frozen) or "edf"

	WallMS     float64 `json:"wall_ms"`
	Frames     int     `json:"frames"` // fed = streams x pictures
	Misses     int64   `json:"deadline_misses"`
	MissRate   float64 `json:"miss_rate"`
	SlackSheds int64   `json:"slack_sheds"`
	Assists    int64   `json:"assists"`
	ShedB      int     `json:"shed_b_pictures"`
	ShedRef    int     `json:"shed_ref_pictures"`
	MaxRung    int     `json:"max_rung"`
	P50MS      float64 `json:"latency_p50_ms"`
	P99MS      float64 `json:"latency_p99_ms"`

	// OracleStreams counts streams that shed nothing and were verified
	// frame-for-frame bit-exact against the sequential oracle.
	OracleStreams int `json:"oracle_streams"`
}

// DeadlinePoint is the whole study, recorded under PerfRun.Deadline.
type DeadlinePoint struct {
	Workers    int            `json:"workers"`
	DeadlineMS float64        `json:"deadline_ms"`
	PerPicMS   float64        `json:"per_pic_cost_ms"` // calibration measurement
	PicRate    float64        `json:"pic_rate"`        // paced per-stream pics/s
	Cells      []DeadlineCell `json:"cells"`

	// MissImprovement is fair miss rate / EDF miss rate at the heaviest
	// load (+Inf rendered as a large number when EDF misses nothing).
	MissImprovement float64 `json:"miss_improvement"`

	Note string `json:"note,omitempty"`
}

// frameHash folds the valid bytes of one frame (strides excluded, like
// frame.Equal) into a 64-bit FNV-1a checksum.
func frameHash(f *frame.Frame) uint64 {
	h := fnv.New64a()
	plane := func(p []uint8, stride, w, rows int) {
		for y := 0; y < rows; y++ {
			h.Write(p[y*stride : y*stride+w])
		}
	}
	plane(f.Y, f.YStride, f.CodedW, f.CodedH)
	plane(f.Cb, f.CStride, f.CodedW/2, f.CodedH/2)
	plane(f.Cr, f.CStride, f.CodedW/2, f.CodedH/2)
	return h.Sum64()
}

// DeadlineStudy runs the fair-vs-EDF miss-rate comparison.
func DeadlineStudy(cfg DeadlineConfig) (*DeadlinePoint, error) {
	cfg = cfg.withDefaults()
	enc, err := encoder.EncodeSequence(encoder.Config{
		Width: cfg.Width, Height: cfg.Height, Pictures: cfg.Pictures,
		GOPSize: cfg.GOPSize, RepeatSequenceHeader: true,
	}, frame.NewSynth(cfg.Width, cfg.Height))
	if err != nil {
		return nil, fmt.Errorf("bench: deadline stream: %w", err)
	}

	// Sequential oracle: per-frame checksums every surviving stream must
	// reproduce, and the per-picture cost the auto-deadline derives from.
	var oracle []uint64
	t0 := time.Now()
	if _, err := core.Decode(enc.Data, core.Options{
		Mode: core.ModeGOP, Workers: 1, Resilience: core.ConcealSlice,
		Sink: func(f *frame.Frame) { oracle = append(oracle, frameHash(f)) },
	}); err != nil {
		return nil, fmt.Errorf("bench: deadline oracle: %w", err)
	}
	perPic := time.Since(t0) / time.Duration(cfg.Pictures)
	deadline := cfg.Deadline
	if deadline <= 0 {
		deadline = 8 * perPic
		if deadline < 5*time.Millisecond {
			deadline = 5 * time.Millisecond
		}
	}

	// Paced arrivals: at the heaviest load the fleet demands Overcommit x
	// the host's measured capacity. Workers beyond GOMAXPROCS time-slice
	// rather than add capacity, so the effective pool is the smaller of
	// the two.
	effWorkers := cfg.Workers
	if p := runtime.GOMAXPROCS(0); p < effWorkers {
		effWorkers = p
	}
	capacity := float64(effWorkers) / perPic.Seconds() // pics/s
	maxLoad := cfg.Loads[len(cfg.Loads)-1]
	rate := cfg.Overcommit * capacity / float64(maxLoad)

	pt := &DeadlinePoint{
		Workers:    cfg.Workers,
		DeadlineMS: ms(deadline),
		PerPicMS:   ms(perPic),
		PicRate:    rate,
	}
	if runtime.GOMAXPROCS(0) == 1 {
		pt.Note = "GOMAXPROCS=1: workers time-slice one CPU; the EDF arm's gains come from slack shedding reducing total work, not from parallel speedup"
	}

	arms := []struct {
		name    string
		policy  server.DispatchPolicy
		noSlack bool
	}{
		{"fair", server.DispatchFair, true},
		{"edf", server.DispatchEDF, false},
	}
	for _, load := range cfg.Loads {
		for _, arm := range arms {
			reps := make([]*DeadlineCell, 0, cfg.Repeats)
			for r := 0; r < cfg.Repeats; r++ {
				// Settle between runs: a cell must not pay the previous
				// cell's garbage.
				runtime.GC()
				cell, err := deadlineCell(cfg, enc.Data, oracle, deadline, rate, load, arm.policy, arm.noSlack)
				if err != nil {
					return nil, fmt.Errorf("bench: deadline %s x%d: %w", arm.name, load, err)
				}
				reps = append(reps, cell)
			}
			sort.Slice(reps, func(i, j int) bool { return reps[i].MissRate < reps[j].MissRate })
			cell := reps[len(reps)/2]
			cell.Dispatch = arm.name
			pt.Cells = append(pt.Cells, *cell)
		}
	}

	// The headline ratio, at the heaviest load.
	n := len(pt.Cells)
	fair, edf := pt.Cells[n-2], pt.Cells[n-1]
	switch {
	case edf.Misses == 0 && fair.Misses == 0:
		pt.MissImprovement = 1
	case edf.Misses == 0:
		pt.MissImprovement = float64(fair.Misses) // no misses left to divide by
	default:
		pt.MissImprovement = fair.MissRate / edf.MissRate
	}
	if cfg.RequireImprovement > 0 && pt.MissImprovement < cfg.RequireImprovement {
		return pt, fmt.Errorf("bench: deadline study: miss improvement %.2fx at %d streams (fair %.3f vs edf %.3f), want >= %.1fx",
			pt.MissImprovement, fair.Streams, fair.MissRate, edf.MissRate, cfg.RequireImprovement)
	}
	return pt, nil
}

// deadlineCell runs one fleet: `load` identical deadline-bearing
// streams against a fresh server with a freshly calibrated cost model
// (identical starting conditions for both arms), collecting miss,
// shed, and latency figures plus the bit-exactness verdict.
func deadlineCell(cfg DeadlineConfig, data []byte, oracle []uint64, deadline time.Duration, rate float64, load int, policy server.DispatchPolicy, noSlack bool) (*DeadlineCell, error) {
	// Calibrate a fresh model exactly as the study's oracle decode did —
	// the arms must not inherit each other's (load-inflated)
	// observations.
	model := &sched.CostModel{}
	if _, err := core.Decode(data, core.Options{
		Mode: core.ModeGOP, Workers: 1, Resilience: core.ConcealSlice, Cost: model,
	}); err != nil {
		return nil, err
	}
	if !model.Calibrated() {
		return nil, fmt.Errorf("cost model still cold after calibration decode")
	}

	srv := server.NewServer(server.Config{
		Workers: cfg.Workers, MaxStreams: load, QueueDepth: load,
		DefaultDemand:       0.01, // overload on purpose: admit everyone
		Tick:                5 * time.Millisecond,
		PauseBase:           10 * time.Millisecond,
		Dispatch:            policy,
		DisableSlackActions: noSlack,
		Cost:                model,
	})
	defer srv.Close()

	maxRung := 0
	stopRung := make(chan struct{})
	rungDone := make(chan struct{})
	go func() {
		defer close(rungDone)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopRung:
				return
			case <-tick.C:
				if r := srv.Rung(); r > maxRung {
					maxRung = r
				}
			}
		}
	}()

	type result struct {
		ss     *server.StreamStats
		hashes []uint64
		err    error
	}
	start := make(chan struct{})
	results := make(chan result, load)
	for i := 0; i < load; i++ {
		go func() {
			<-start
			var hashes []uint64
			ss, err := srv.Decode(context.Background(), bytes.NewReader(data), server.StreamConfig{
				Resilience: core.ConcealSlice, Deadline: deadline,
				MaxInFlight: cfg.MaxInFlight, PicRate: rate,
				Sink: func(f *frame.Frame) { hashes = append(hashes, frameHash(f)) },
			})
			results <- result{ss, hashes, err}
		}()
	}
	t0 := time.Now()
	close(start)

	cell := &DeadlineCell{Streams: load, Frames: load * cfg.Pictures}
	var lats []time.Duration
	for i := 0; i < load; i++ {
		r := <-results
		if r.err != nil {
			return nil, r.err
		}
		st := r.ss.Stats
		if st.Displayed != st.Pictures {
			return nil, fmt.Errorf("stream %d displayed %d of %d pictures", r.ss.ID, st.Displayed, st.Pictures)
		}
		if st.LeakedFrameBytes != 0 {
			return nil, fmt.Errorf("stream %d leaked %d frame bytes", r.ss.ID, st.LeakedFrameBytes)
		}
		cell.ShedB += st.Shed.BPictures
		cell.ShedRef += st.Shed.RefPictures
		lats = append(lats, r.ss.Latencies...)
		// Bit-exactness: a stream that shed nothing must reproduce the
		// oracle frame for frame (the input is clean, so the degraded
		// resilience floor cannot change pixels either).
		if st.Shed.Total() == 0 {
			if len(r.hashes) != len(oracle) {
				return nil, fmt.Errorf("stream %d delivered %d frames, oracle has %d", r.ss.ID, len(r.hashes), len(oracle))
			}
			for j, h := range r.hashes {
				if h != oracle[j] {
					return nil, fmt.Errorf("stream %d frame %d diverged from the sequential oracle under %v dispatch", r.ss.ID, j, policy)
				}
			}
			cell.OracleStreams++
		}
	}
	wall := time.Since(t0)
	close(stopRung)
	<-rungDone
	m := srv.Metrics()
	if err := srv.Close(); err != nil {
		return nil, err
	}

	cell.WallMS = ms(wall)
	cell.Misses = m.Misses
	cell.MissRate = float64(m.Misses) / float64(cell.Frames)
	cell.SlackSheds = m.SlackSheds
	cell.Assists = m.Assists
	cell.MaxRung = maxRung
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		cell.P50MS = ms(lats[int(0.50*float64(len(lats)-1))])
		cell.P99MS = ms(lats[int(0.99*float64(len(lats)-1))])
	}
	return cell, nil
}

// WriteText renders the study as the BENCH figure table.
func (pt *DeadlinePoint) WriteText(w io.Writer) {
	fmt.Fprintf(w, "deadline study: fair vs edf on %d workers, %.1fms frame budget (per-pic cost %.2fms, paced %.0f pics/s per stream)\n",
		pt.Workers, pt.DeadlineMS, pt.PerPicMS, pt.PicRate)
	if pt.Note != "" {
		fmt.Fprintf(w, "  note: %s\n", pt.Note)
	}
	fmt.Fprintf(w, "  %8s %5s %7s %7s %8s %6s %7s %6s %5s %9s %9s %7s\n",
		"streams", "arm", "frames", "misses", "missrate", "shed", "slackshd", "assist", "rung", "p50 ms", "p99 ms", "oracle")
	for _, c := range pt.Cells {
		fmt.Fprintf(w, "  %8d %5s %7d %7d %8.3f %6d %7d %6d %5d %9.2f %9.2f %7d\n",
			c.Streams, c.Dispatch, c.Frames, c.Misses, c.MissRate,
			c.ShedB+c.ShedRef, c.SlackSheds, c.Assists, c.MaxRung, c.P50MS, c.P99MS, c.OracleStreams)
	}
	fmt.Fprintf(w, "  miss improvement at %d streams: %.2fx (fair/edf)\n",
		pt.Cells[len(pt.Cells)-1].Streams, pt.MissImprovement)
}

// WriteJSON emits the study as indented JSON.
func (pt *DeadlinePoint) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pt)
}

// DeadlineRun wraps the study in a host-stamped PerfRun for
// BENCH_<n>.json.
func DeadlineRun(label string, pt *DeadlinePoint) *PerfRun {
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
		ScalingNote: pt.Note,
		Deadline:    pt,
	}
}
