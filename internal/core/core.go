package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/obs"
	"mpeg2par/internal/sched"
	"mpeg2par/internal/vldsplit"
)

// ErrBadOption is the sentinel every option-validation failure wraps:
// errors.Is(err, ErrBadOption) distinguishes a misconfigured decode from
// stream damage, and the wrapping message names the offending option.
var ErrBadOption = errors.New("invalid option")

// badOption reports an option-validation failure, naming the option.
func badOption(format string, args ...any) error {
	return fmt.Errorf("core: %w: %s", ErrBadOption, fmt.Sprintf(format, args...))
}

// Mode selects the parallelization strategy.
type Mode int

// The decoder variants the paper evaluates.
const (
	// ModeGOP is the coarse-grained decoder: one task per group of
	// pictures (§5.1).
	ModeGOP Mode = iota
	// ModeSliceSimple is the fine-grained decoder with a barrier after
	// every picture (§5.2, "simple slice version").
	ModeSliceSimple
	// ModeSliceImproved is the fine-grained decoder without the picture
	// barrier (§5.2, "improved slice version"). The paper synchronizes at
	// the end of every reference (I/P) picture; this decoder synchronizes
	// on the data itself: a slice runs as soon as the reference rows its
	// motion vectors can reach are decoded (see sliceQueue), so B
	// pictures, the next reference and the next group of pictures all
	// overlap the tail of the picture before them.
	ModeSliceImproved
	// ModeSequential decodes on a single worker from the same scanned
	// plan as the parallel modes. It is the reference the error-resilience
	// golden tests compare every parallel mode against: for a given stream
	// and policy all four modes produce bit-identical frames.
	ModeSequential
	// ModeAuto lets the scheduler pick: the cost-model policy
	// (internal/sched) predicts how well the workload balances at GOP and
	// slice grain and resolves to sequential, GOP, or improved-slice mode
	// with a worker count at the efficiency knee. Stats.Auto records the
	// decision; Options.Workers becomes the worker-count ceiling.
	ModeAuto
)

func (m Mode) String() string {
	switch m {
	case ModeGOP:
		return "gop"
	case ModeSliceSimple:
		return "slice-simple"
	case ModeSliceImproved:
		return "slice-improved"
	case ModeSequential:
		return "sequential"
	case ModeAuto:
		return "auto"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// sliceGrain reports whether the mode runs its pictures through the slice
// queue (the rest decode each picture whole on one worker).
func (m Mode) sliceGrain() bool { return m == ModeSliceSimple || m == ModeSliceImproved }

// Options configures a parallel decode.
type Options struct {
	Mode    Mode
	Workers int // number of worker processes (paper's P); >= 1

	// Sink receives every frame in display order, from the display
	// process. The frame is only valid during the call (it returns to
	// the pool afterwards). Nil discards output.
	Sink func(*frame.Frame)

	// Profile, when true, records task costs at the paper's grain — one
	// per slice (or segment of a split slice), in GOP mode also one per
	// group — whatever tasks the run fused them into (single-worker runs
	// are the meaningful profile source for the deterministic simulator).
	Profile bool

	// Resilience selects the error-resilience ladder (FailFast default).
	// Every policy executes the same plan: all scheduling modes produce
	// bit-identical frames and identical ErrorStats for the same damaged
	// stream.
	Resilience Resilience

	// MaxInFlight bounds the scan-ahead window: how many GOP units may be
	// buffered or decoding at once before the scan process blocks
	// (backpressure) — or, decoding a scanned stream, before the next
	// group is handed over. Zero selects 2×EffectiveWorkers()+2.
	MaxInFlight int

	// Obs, when non-nil, receives structured scheduling events from every
	// process of the decode — task spans, queue and barrier waits, scan,
	// feed, and display events — for timeline export and load-balance
	// reports. Nil (the default) keeps the scheduling paths event-free:
	// each hook is a single pointer test.
	Obs *obs.Tracer

	// Cost, when non-nil, is fed one (compressed bytes, wall duration)
	// observation per completed task, calibrating byte-size cost
	// estimates into absolute time across runs. Shared across decodes;
	// ModeAuto uses it to phrase its decision in predicted wall time.
	Cost *sched.CostModel

	// SplitIndex, when non-nil, supplies exact intra-slice split points
	// (see internal/vldsplit): slices spanning two or more macroblock
	// rows whose content the index knows are fanned out as parallel
	// row-segments in the slice-grain modes. Output stays bit-exact —
	// the join verifies every segment chain and falls back to a
	// sequential re-decode on any mismatch, so even a poisoned index
	// only costs time.
	SplitIndex *vldsplit.Index

	// SpeculativeSplit enables guessed split points for tall slices the
	// index does not cover (or when no index is given): resync
	// candidates are found by trial-parsing near even payload fractions
	// and verified at the join exactly like indexed points. A wrong
	// guess costs a sequential fallback, never wrong pixels.
	SpeculativeSplit bool

	// SplitParts overrides how many segments a split slice targets. At 0
	// a slice is cut at TaskGrain's split grain: the pool's band grain,
	// but never segments under 49 macroblocks, each of which costs about
	// 0.65 µs beyond its decode (a 352x240 slice: 4 segments on one
	// worker, 5 on more). Profiling runs set it to capture, on a single
	// worker, the segment costs of a larger pool;
	// BenchmarkSplitSegmentCost sets it to measure what a segment costs.
	SplitParts int

	// Frames, when non-nil, is the service's spare-frame store: the
	// decode draws its frames from it and hands the idle ones back when it
	// finishes. Nil allocates per decode.
	Frames *frame.Store
}

// EffectiveWorkers returns the worker count a decode in this mode
// actually uses: ModeSequential always runs on one worker regardless of
// Options.Workers. Stats.Workers reports this value, so the gauge is
// truthful in every mode.
func (o Options) EffectiveWorkers() int {
	if o.Mode == ModeSequential {
		return 1
	}
	return o.Workers
}

// EffectiveMaxInFlight resolves the scan-ahead window for the streaming
// pipeline.
func (o Options) EffectiveMaxInFlight() int {
	if o.MaxInFlight > 0 {
		return o.MaxInFlight
	}
	w := o.EffectiveWorkers()
	if w < 1 {
		w = 1
	}
	return 2*w + 2
}

// WorkerStats describes one worker process's time breakdown.
type WorkerStats struct {
	Busy  time.Duration // decoding
	Wait  time.Duration // blocked on the task queue / picture barrier, polling or asleep
	Tasks int
	// Parks counts the times a slice-queue worker went to sleep in a
	// blocked take rather than poll: each one costs a wake-up.
	Parks int
}

// TaskCost is a profiled task duration.
type TaskCost struct {
	Cost time.Duration
	Work decoder.WorkStats
}

// PicProfile is the per-picture slice cost profile used by the simulator.
type PicProfile struct {
	Ref        bool // reference (I or P) picture
	Type       byte
	SliceCosts []time.Duration
	HeaderCost time.Duration // per-picture overhead (header parse, open)
	DisplayIdx int
	// RowWindow is how many macroblock rows around its own a slice reads
	// in the picture's reference frames (refRowWindow of its f_code; 0
	// for an intra picture or a window of the whole frame).
	RowWindow int
}

// Stats reports a parallel decode run.
type Stats struct {
	Mode      Mode
	Workers   int
	Pictures  int
	Displayed int
	// Kernels is the reconstruction kernel tier the decode ran with,
	// with hardware context when vectorized: "asm(avx2)", "swar",
	// "scalar" (see internal/kernels).
	Kernels  string
	Wall     time.Duration // decode wall time (excluding scan)
	ScanTime time.Duration
	ScanRate float64 // pictures/second in the scan process

	WorkerStats []WorkerStats
	Work        decoder.WorkStats

	// Concealed counts macroblocks recovered by error concealment: it is
	// Errors.ConcealedMBs, under its older name.
	Concealed int

	// Errors accounts the damage a resilient decode recovered from; for a
	// given stream and policy it is identical across all scheduling modes.
	Errors ErrorStats

	// Shed accounts pictures sacrificed by the multi-stream service's
	// graceful-degradation ladder (load shedding and degraded-resilience
	// recoveries). Always zero on the single-stream paths, and strictly
	// disjoint from Errors: a shed picture is never also counted as a
	// decode error.
	Shed ShedStats

	// Split accounts the intra-slice split decoder (zero unless
	// Options.SplitIndex or Options.SpeculativeSplit was set and tall
	// slices were found). Disjoint from Errors and Shed: a verify miss
	// is a failed speculation, not stream damage.
	Split SplitStats

	// Auto records a ModeAuto run's scheduling decision (nil for fixed
	// modes). Stats.Mode and Stats.Workers report the resolved values.
	Auto *AutoDecision

	// PeakFrameBytes is the high watermark of decoded-picture memory —
	// the quantity Figures 8 and 9 study.
	PeakFrameBytes int64
	// FramesAllocated is the cumulative size in bytes of the frame buffers
	// the decode allocated (divide by one frame's bytes for their number).
	FramesAllocated int64

	// Pipeline gauges.

	// PeakInFlightBytes is the high watermark of buffered bitstream
	// bytes: the scan window plus GOP task buffers not yet decoded. It is
	// bounded by the scan-ahead window (Options.MaxInFlight) and the GOP
	// size, never by stream length — the paper's §5 memory claim, made
	// measurable.
	PeakInFlightBytes int64
	// ScanLeadPeak is the peak of pictures scanned minus pictures
	// displayed: how far the scan process ran ahead of the display
	// process.
	ScanLeadPeak int
	// LeakedFrameBytes counts frame-pool bytes unaccounted for at
	// pipeline teardown. It is zero on every clean or cancelled run; the
	// cancellation tests assert it.
	LeakedFrameBytes int64

	// Profiles (only with Options.Profile).
	GOPCosts  []TaskCost
	SliceProf []PicProfile
}

// poolGauges copies the frame pool's counters into the run's report and
// returns the bytes still handed out (a pipeline that tears down reports
// them as LeakedFrameBytes). FramesAllocated holds the pool's cumulative
// allocation in bytes, not a buffer count — benchmark/probes.go divides
// it by a frame's size.
func (s *Stats) poolGauges(pool *frame.Pool) (inUse int64) {
	ps := pool.Stats()
	s.PeakFrameBytes = ps.PeakBytes
	s.FramesAllocated = ps.AllocBytes
	return ps.InUseBytes
}

// PicturesPerSecond returns decoded pictures per wall second.
func (s *Stats) PicturesPerSecond() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Pictures) / s.Wall.Seconds()
}

// Decode runs the parallel decoder over a complete elementary stream.
func Decode(data []byte, opt Options) (*Stats, error) {
	// The executor first: a bad option is reported before the scan is paid
	// for, and whatever the scan would have said.
	e, err := NewStreamExecutor(context.TODO(), opt)
	if err != nil {
		return nil, err
	}
	scanFn := Scan
	if opt.Resilience != FailFast {
		scanFn = ScanLenient
	}
	scanStart := time.Now()
	m, err := scanFn(data)
	if err != nil {
		return nil, err
	}
	opt.Obs.Record(obs.KindScan, obs.LaneScan, scanStart, m.ScanTime, -1, -1, -1)
	return e.decodeScanned(data, m)
}

// DecodeScanned runs the parallel decoder over a pre-scanned stream
// (callers sweeping worker counts scan once): the streaming executor, fed
// each scanned group as a unit that borrows the caller's bytes.
func DecodeScanned(data []byte, m *StreamMap, opt Options) (*Stats, error) {
	e, err := NewStreamExecutor(context.TODO(), opt)
	if err != nil {
		return nil, err
	}
	return e.decodeScanned(data, m)
}

func (e *StreamExecutor) decodeScanned(data []byte, m *StreamMap) (*Stats, error) {
	var feedErr error
	for g := 0; g < len(m.GOPs) && feedErr == nil; g++ {
		feedErr = e.Feed(Unit{G: g, Data: data, Range: m.GOPs[g], Seq: m.Seq})
	}
	st, err := e.Finish(feedErr)
	if err != nil {
		return nil, err
	}
	st.ScanTime, st.ScanRate = m.ScanTime, m.ScanRate()
	return st, nil
}
