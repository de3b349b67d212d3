// Package mpeg2par is a software MPEG-2 video decoder parallelized two
// ways — coarse-grained across groups of pictures and fine-grained across
// slices — reproducing Bilas, Fritts & Singh, "Real-Time Parallel MPEG-2
// Decoding in Software" (IPPS 1997).
//
// The package bundles everything the paper's evaluation needs:
//
//   - a from-scratch MPEG-2 Main Profile codec (encoder + decoder), used
//     to regenerate the paper's synthetic test streams at any resolution
//     and GOP size;
//   - the parallel decoder core: scan process, GOP-level and slice-level
//     (simple and improved) worker pools, and a reordering display
//     process;
//   - a deterministic discrete-event simulator that replays measured task
//     costs under any number of workers, reproducing the 16-processor
//     results of the paper on hosts with fewer cores;
//   - a multiprocessor cache simulator fed by the decoder's memory
//     reference trace, for the spatial/temporal locality study;
//   - the analytical memory model of the GOP-level decoder.
//
// Quick start:
//
//	stream, _ := mpeg2par.GenerateStream(mpeg2par.StreamConfig{
//		Width: 352, Height: 240, Pictures: 13, GOPSize: 13,
//	})
//	stats, _ := mpeg2par.Decode(context.Background(),
//		mpeg2par.FromBytes(stream.Data),
//		mpeg2par.WithMode(mpeg2par.ModeSliceImproved),
//		mpeg2par.WithWorkers(4),
//	)
//	fmt.Println(stats.PicturesPerSecond())
//
// Decode streams its source through an incremental scan process, so a
// FromReader source of any length decodes in bounded memory; cancel the
// context to tear the pipeline down mid-stream.
package mpeg2par

import (
	"context"
	"io"

	"mpeg2par/internal/cachesim"
	"mpeg2par/internal/core"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/faults"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/memmodel"
	"mpeg2par/internal/memtrace"
	"mpeg2par/internal/obs"
	"mpeg2par/internal/simsched"
	"mpeg2par/internal/stream"
	"mpeg2par/internal/vldsplit"
)

// Frame is one decoded picture in planar YCbCr 4:2:0.
type Frame = frame.Frame

// Synth is the deterministic synthetic video source (the flower-garden
// stand-in).
type Synth = frame.Synth

// NewSynth returns a synthetic video source for width×height pictures.
func NewSynth(width, height int) *Synth { return frame.NewSynth(width, height) }

// InterlacedSynth renders the synthetic scene with temporally offset
// fields — the source material for the interlaced coding tools.
type InterlacedSynth = frame.InterlacedSynth

// NewInterlacedSynth returns an interlaced synthetic source.
func NewInterlacedSynth(width, height int) *InterlacedSynth {
	return frame.NewInterlacedSynth(width, height)
}

// PSNR returns the luma peak signal-to-noise ratio between two frames.
func PSNR(a, b *Frame) float64 { return frame.PSNR(a, b) }

// --- stream generation -----------------------------------------------------

// StreamConfig selects the encoder parameters for a generated test stream.
type StreamConfig = encoder.Config

// Stream is an encoded MPEG-2 elementary stream plus its metadata.
type Stream = encoder.Result

// PictureInfo describes one encoded picture.
type PictureInfo = encoder.PictureInfo

// GenerateStream encodes a synthetic scene with the given configuration,
// reproducing the paper's methodology of synthesizing test streams at
// chosen resolutions and GOP sizes.
func GenerateStream(cfg StreamConfig) (*Stream, error) {
	return encoder.EncodeSequence(cfg, frame.NewSynth(cfg.Width, cfg.Height))
}

// EncodeFrames encodes pictures from an arbitrary source (display order).
func EncodeFrames(cfg StreamConfig, src func(n int) *Frame) (*Stream, error) {
	return encoder.EncodeSequence(cfg, sourceFunc(src))
}

type sourceFunc func(n int) *Frame

func (f sourceFunc) Frame(n int) *Frame { return f(n) }

// --- sequential decoding ----------------------------------------------------

// Decoder decodes a stream sequentially, returning frames in display
// order — the baseline of every speedup measurement.
type Decoder = decoder.Decoder

// NewDecoder returns a sequential decoder over data.
func NewDecoder(data []byte) (*Decoder, error) { return decoder.New(data) }

// --- parallel decoding -------------------------------------------------------

// Mode selects the parallelization strategy.
type Mode = core.Mode

// The decoder variants the paper evaluates, plus the single-worker
// planned executor the resilient modes are verified against, plus the
// cost-model-driven automatic mode: WithMode(ModeAuto) lets the scheduler
// pick sequential, GOP or improved-slice decoding, with WithWorkers as the
// worker ceiling, from the first group's geometry, for the whole stream.
// Stats.Auto reports the decision; output is bit-identical to every mode.
const (
	ModeGOP           = core.ModeGOP
	ModeSliceSimple   = core.ModeSliceSimple
	ModeSliceImproved = core.ModeSliceImproved
	ModeSequential    = core.ModeSequential
	ModeAuto          = core.ModeAuto
)

// AutoDecision records how a ModeAuto run resolved (Stats.Auto).
type AutoDecision = core.AutoDecision

// Resilience selects how the decoder reacts to damaged streams; every
// policy produces bit-identical output in all decode modes.
type Resilience = core.Resilience

// The resilience policy ladder, most to least strict.
const (
	FailFast       = core.FailFast
	ConcealSlice   = core.ConcealSlice
	ConcealPicture = core.ConcealPicture
	DropGOP        = core.DropGOP
)

// ParseResilience reads a policy name ("failfast", "conceal-slice",
// "conceal-picture", "drop-gop" and short aliases).
func ParseResilience(s string) (Resilience, error) { return core.ParseResilience(s) }

// ErrorStats counts the damage a resilient decode recovered from.
type ErrorStats = core.ErrorStats

// ShedStats counts pictures sacrificed by the multi-stream service's
// graceful-degradation ladder (Stats.Shed) — strictly disjoint from
// ErrorStats: a shed picture is never also counted as a decode error.
type ShedStats = core.ShedStats

// ShedLevel is the service ladder's load-shedding level.
type ShedLevel = core.ShedLevel

// The shedding levels: none, B pictures, B and P pictures.
const (
	ShedNone = core.ShedNone
	ShedB    = core.ShedB
	ShedRef  = core.ShedRef
)

// FaultSpec describes one deterministic stream corruption.
type FaultSpec = faults.Spec

// FaultReport summarizes the corruption an injection applied.
type FaultReport = faults.Report

// ParseFaultSpec reads a fault spec such as "bitflip:8" or
// "gilbert:loss=0.02,burst=4,pkt=188" (see internal/faults).
func ParseFaultSpec(s string) (FaultSpec, error) { return faults.Parse(s) }

// Stats reports a parallel decode run.
type Stats = core.Stats

// WorkerStats is one worker's time breakdown.
type WorkerStats = core.WorkerStats

// StreamMap is the scan process's structural index of a stream.
type StreamMap = core.StreamMap

// ScanReader indexes a stream incrementally from r, reading chunkSize
// bytes at a time (0 selects the default); wrap in-memory data with
// bytes.NewReader. For the same bytes the resulting map is identical
// whatever the chunk size.
func ScanReader(r io.Reader, chunkSize int) (*StreamMap, error) {
	return stream.ScanReader(r, chunkSize, false)
}

// --- intra-slice split decode ---------------------------------------------------

// Index is a split index: a side channel of verified resynchronization
// points inside individual slices (bit offset plus the full predictor
// state at that point), keyed by slice content so it survives stream
// repackaging. With WithIndex, the parallel decoder fans a single large
// slice out across the worker pool as independent macroblock-row
// segments, bit-exact against the sequential decode. Build one with
// BuildIndex and persist it with MarshalBinary/UnmarshalBinary.
type Index = vldsplit.Index

// NewIndex returns an empty split index, ready for UnmarshalBinary.
func NewIndex() *Index { return vldsplit.NewIndex() }

// SplitStats counts intra-slice split-decode activity (Stats.Split):
// slices fanned out, segments run, entry-state verifications, and
// sequential fallbacks. Disjoint from ErrorStats — a failed split is
// re-decoded sequentially, never reported as stream damage.
type SplitStats = core.SplitStats

// ErrBadOption is wrapped by every option-validation failure across the
// decode entry points; the message names the offending option. Test
// with errors.Is(err, ErrBadOption).
var ErrBadOption = core.ErrBadOption

// BuildIndex scans src and records intra-slice split points for every
// slice spanning at least two macroblock rows: one sequential
// entropy-decode pass per slice, capturing the bit offset and predictor
// state at each row boundary. The returned index feeds WithIndex; it is
// keyed by slice content, so it remains valid when the same elementary
// stream is decoded from a different container or offset.
func BuildIndex(ctx context.Context, src Source) (*Index, error) {
	data := src.s.Data
	if src.s.R != nil {
		var err error
		if data, err = io.ReadAll(src.s.R); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, err := core.Scan(data)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return core.BuildIndexScanned(data, m)
}

// --- timeline observability ----------------------------------------------------

// TraceRecorder collects scheduling events from every process of a
// decode into per-lane ring buffers (see WithTrace). The zero value is
// not usable; construct with NewTraceRecorder.
type TraceRecorder = obs.Tracer

// NewTraceRecorder returns a timeline recorder. laneCap bounds the
// events kept per lane (scan, each worker, display); zero selects the
// default (8192). When a lane overflows, the oldest events are dropped
// and counted in Timeline.Dropped.
func NewTraceRecorder(laneCap int) *TraceRecorder { return obs.New(laneCap) }

// Timeline is a recorded decode schedule: every event from every lane,
// merged in start order. Export it with WriteChromeTrace (load the JSON
// in Perfetto or chrome://tracing) or reduce it with Summary.
type Timeline = obs.Timeline

// TimelineEvent is one recorded scheduling event (task span, queue or
// barrier wait, scan, feed, or display instant).
type TimelineEvent = obs.Event

// TimelineSummary is the derived load-balance report: per-worker
// utilization, barrier- and queue-wait histograms, imbalance factor,
// and synchronization-overhead fraction.
type TimelineSummary = obs.Summary

// --- deterministic simulation -------------------------------------------------

// SimResult is one simulated parallel execution.
type SimResult = simsched.Result

// SimPicture and GOPTask describe profiled workloads for the simulator.
type (
	SimPicture = simsched.SimPicture
	GOPTask    = simsched.GOPTask
)

// DSMConfig models a distributed-shared-memory machine (§7.2).
type DSMConfig = simsched.DSMConfig

// ProfileSlices measures per-slice decode costs with one worker and
// returns the simulator workload.
func ProfileSlices(data []byte) ([]SimPicture, error) {
	st, err := core.Decode(data, core.Options{Mode: core.ModeSliceImproved, Workers: 1, Profile: true})
	if err != nil {
		return nil, err
	}
	return SliceProfileToSim(st.SliceProf), nil
}

// SliceProfileToSim converts a core profile into simulator pictures.
func SliceProfileToSim(prof []core.PicProfile) []SimPicture {
	pics := make([]SimPicture, len(prof))
	for i, p := range prof {
		pics[i] = simsched.SimPicture{
			Ref:        p.Ref,
			Intra:      p.Type == 'I',
			DisplayIdx: p.DisplayIdx,
			SliceCosts: p.SliceCosts,
			Window:     p.RowWindow,
		}
	}
	return pics
}

// ProfileGOPs measures per-GOP decode costs with one worker and returns
// the simulator workload (tasks available immediately, like the paper's
// assumption that the scan keeps ahead).
func ProfileGOPs(data []byte) ([]GOPTask, error) {
	m, err := core.Scan(data)
	if err != nil {
		return nil, err
	}
	st, err := core.DecodeScanned(data, m, core.Options{Mode: core.ModeGOP, Workers: 1, Profile: true})
	if err != nil {
		return nil, err
	}
	tasks := make([]GOPTask, len(st.GOPCosts))
	for i, c := range st.GOPCosts {
		tasks[i] = simsched.GOPTask{Cost: c.Cost, Pictures: len(m.GOPs[i].Pictures)}
	}
	return tasks, nil
}

// SimulateGOP replays GOP tasks under P simulated workers.
func SimulateGOP(tasks []GOPTask, workers int) SimResult {
	return simsched.SimulateGOP(tasks, workers)
}

// SimulateSlices replays slice tasks under P simulated workers with the
// paper's simple (barrier every picture) or improved (barrier after
// references) discipline. The decoder's own improved mode waits on
// reference rows instead; SimulateSlicesMax with vrange 0 replays that.
func SimulateSlices(pics []SimPicture, workers int, improved bool) SimResult {
	return simsched.SimulateSlices(pics, workers, improved)
}

// SimulateSlicesDSM replays slice tasks on the distributed-memory model.
func SimulateSlicesDSM(pics []SimPicture, workers int, improved bool, cfg DSMConfig) SimResult {
	return simsched.SimulateSlicesDSM(pics, workers, improved, cfg)
}

// SimulateSlicesMax replays slice tasks under the maximum-concurrency
// discipline the paper sketched but did not build: no picture barriers,
// only slice-level data dependencies (a slice waits for the reference
// slices within ±vrange rows). With vrange 0 each picture waits within
// its own SimPicture.Window, which ProfileSlices fills from the
// picture's f_code — the rule the improved slice mode decodes under.
func SimulateSlicesMax(pics []SimPicture, workers, vrange int) SimResult {
	return simsched.SimulateSlicesMax(pics, workers, vrange)
}

// SimulateGOPDSMQueues replays GOP tasks on the distributed-memory model
// with the paper's §7.2 remedy: per-cluster task queues, round-robin GOP
// placement, and stealing.
func SimulateGOPDSMQueues(tasks []GOPTask, workers int, cfg DSMConfig) SimResult {
	return simsched.SimulateGOPDSMQueues(tasks, workers, cfg)
}

// --- locality study -------------------------------------------------------------

// TraceEvent is one memory-reference extent from the decoder.
type TraceEvent = memtrace.Event

// CacheConfig describes the simulated per-processor caches.
type CacheConfig = cachesim.Config

// CacheStats are the simulated miss counters.
type CacheStats = cachesim.Stats

// TraceDecode records the reconstruction memory-reference stream of the
// stream decoded under mode as if workers processors had run it, each
// event labelled by a fixed task assignment (see core.TraceDecode), so
// that every call on every host returns the same events. ModeSequential
// traces on one processor; ModeAuto is rejected with ErrBadOption.
func TraceDecode(data []byte, mode Mode, workers int) ([]TraceEvent, error) {
	rec := memtrace.NewRecorder()
	if err := core.TraceDecode(data, mode, workers, rec); err != nil {
		return nil, err
	}
	return rec.Events(), nil
}

// SimulateCache runs a trace through the configured memory system.
func SimulateCache(events []TraceEvent, cfg CacheConfig) (CacheStats, error) {
	sim, err := cachesim.New(cfg)
	if err != nil {
		return CacheStats{}, err
	}
	if err := sim.Run(events); err != nil {
		return CacheStats{}, err
	}
	return sim.Stats(), nil
}

// --- memory model ------------------------------------------------------------------

// MemModel parameterizes the analytical GOP-decoder memory model.
type MemModel = memmodel.Params

// MemPoint is one instant of the modeled memory usage.
type MemPoint = memmodel.Point
