package mpeg2par

import (
	"bytes"
	"context"
	"io"
	"runtime"

	"mpeg2par/internal/core"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/obs"
	"mpeg2par/internal/stream"
)

// Source is where a decode reads its elementary stream from. Construct
// one with FromBytes or FromReader; the zero Source is invalid.
type Source struct {
	r io.Reader
}

// FromBytes sources a decode from an in-memory elementary stream.
func FromBytes(data []byte) Source {
	return Source{r: bytes.NewReader(data)}
}

// FromReader sources a decode from r. The stream is consumed
// incrementally: the pipeline holds only the scan-ahead window in
// memory (see WithMaxInFlight), so r may be a file, a socket, or any
// other reader far larger than memory.
func FromReader(r io.Reader) Source {
	return Source{r: r}
}

// FrameSink receives every decoded frame in display order, called from
// the display process. The frame is only valid during the call (it
// returns to the frame pool afterwards); Clone it to keep it.
type FrameSink func(*Frame)

// Option configures Decode.
type Option func(*decodeConfig)

type decodeConfig struct {
	opt  stream.Options
	sink func(TimelineEvent)
}

// WithMode selects the parallelization strategy (default
// ModeSliceImproved, the paper's best-scaling variant).
func WithMode(m Mode) Option {
	return func(c *decodeConfig) { c.opt.Mode = m }
}

// WithWorkers sets the number of worker processes. Zero or negative
// selects the documented default, the number of CPUs.
func WithWorkers(n int) Option {
	return func(c *decodeConfig) { c.opt.Workers = n }
}

// WithAutoTune lets the cost-model scheduler pick the parallelization
// strategy instead of WithMode: the first group of pictures' geometry
// (per-GOP and per-slice byte sizes from the scan) predicts how well
// the workload balances at each grain, and the policy resolves to
// sequential, GOP, or improved-slice decoding with a worker count at
// the efficiency knee — WithWorkers (or its CPU-count default) is the
// ceiling. As the stream plays, worker utilization is re-evaluated at
// every GOP boundary and surplus workers are parked. The decision and
// its outcome are reported in Stats.Auto; output is bit-identical to
// every fixed mode.
func WithAutoTune() Option {
	return func(c *decodeConfig) { c.opt.Mode = core.ModeAuto }
}

// WithPacking overrides the order the slice modes hand out the tasks of
// one picture (default PackLPT, longest-first by byte-size cost; GOP mode
// runs groups in stream order whatever the packing). seed feeds
// PackRandom and is ignored by the deterministic packings. Packing never
// changes decoded output, only the order workers receive tasks.
func WithPacking(p Packing, seed int64) Option {
	return func(c *decodeConfig) {
		c.opt.Packing = p
		c.opt.PackSeed = seed
	}
}

// WithAffinity overrides the task-steering discipline of the slice modes
// (default AffinityRow: the picture is cut into one horizontal band per
// worker and each task — a few adjacent macroblock rows — is steered to
// the worker whose band it starts in, the worker that decoded the same
// band of the reference picture, so motion-compensation reference reads
// reuse that worker's cache). AffinityNone restores pure dynamic
// assignment. Affinity never changes decoded output, only which worker
// runs a task.
func WithAffinity(a Affinity) Option {
	return func(c *decodeConfig) { c.opt.Affinity = a }
}

// WithResilience selects the error-resilience policy (default
// FailFast). Every policy produces bit-identical output in all modes.
func WithResilience(p Resilience) Option {
	return func(c *decodeConfig) { c.opt.Resilience = p }
}

// WithFrameSink delivers decoded frames, in display order, to sink.
func WithFrameSink(sink FrameSink) Option {
	return func(c *decodeConfig) {
		if sink == nil {
			c.opt.Sink = nil
			return
		}
		c.opt.Sink = func(f *frame.Frame) { sink(f) }
	}
}

// WithMaxInFlight bounds the scan-ahead window: how many groups of
// pictures may be buffered or decoding at once before the scan process
// blocks. Smaller values cut peak memory (Stats.PeakInFlightBytes);
// larger values let the scan run further ahead. Zero (the default)
// selects 2×workers+2.
func WithMaxInFlight(n int) Option {
	return func(c *decodeConfig) { c.opt.MaxInFlight = n }
}

// WithChunkSize sets the read granularity over the source (default
// 64 KiB).
func WithChunkSize(n int) Option {
	return func(c *decodeConfig) { c.opt.ChunkSize = n }
}

// WithIndex supplies a split index (see BuildIndex): slices the index
// covers are fanned out across the worker pool as independent
// macroblock-row segments instead of decoding on one worker. Every
// segment's exit state is verified against the recorded entry state of
// the next; any mismatch — including a stale or corrupted index — falls
// back to sequential decode of that slice, so output stays bit-exact in
// every mode and policy. Split activity is reported in Stats.Split.
func WithIndex(idx *Index) Option {
	return func(c *decodeConfig) { c.opt.SplitIndex = idx }
}

// WithSpeculativeSplit enables speculative intra-slice splitting for
// slices with no index entry: the decoder guesses resynchronization
// points near macroblock-row boundaries, decodes the segments
// optimistically, and keeps the result only if every segment's entry
// state verifies exactly; otherwise the slice is re-decoded
// sequentially. Wrong guesses cost time, never correctness.
func WithSpeculativeSplit(on bool) Option {
	return func(c *decodeConfig) { c.opt.SpeculativeSplit = on }
}

// WithSplitParts overrides how many segments a split slice is divided
// into. The default (0) cuts it at the grain of every other slice-mode
// task on the same pool — segments of ceil(rows / (4·workers)) macroblock
// rows, about four per worker for a slice that spans the picture — not
// into one segment per worker.
func WithSplitParts(n int) Option {
	return func(c *decodeConfig) { c.opt.SplitParts = n }
}

// WithTrace attaches a timeline recorder to the decode: every process —
// scan, workers, display — logs its scheduling events (task spans, queue
// and barrier waits, feed backpressure) into rec's per-lane ring
// buffers. After Decode returns, rec.Snapshot() yields the merged
// Timeline for Chrome-trace export or a load-balance Summary. Tracing
// never changes decoded output; with no recorder attached the event
// hooks cost a single pointer test each.
func WithTrace(rec *TraceRecorder) Option {
	return func(c *decodeConfig) { c.opt.Obs = rec }
}

// WithEventSink streams every recorded timeline event to fn as it
// happens, in addition to the ring buffers. fn is called from scan,
// worker, and display goroutines concurrently and must be fast and
// thread-safe. Implies tracing: if no recorder was attached with
// WithTrace, an internal one is created.
func WithEventSink(fn func(TimelineEvent)) Option {
	return func(c *decodeConfig) { c.sink = fn }
}

// Decode runs the streaming parallel decoder over src: an incremental
// scan process discovers groups of pictures chunk by chunk and feeds
// them to the worker pool as soon as they close, the configured mode's
// workers decode them, and the display process delivers frames in
// display order to the sink — all while the rest of the stream is still
// being read. Peak buffered-stream memory is bounded by the scan-ahead
// window, never by stream length.
//
// Cancelling ctx (or exceeding its deadline) tears the pipeline down —
// scan, workers, and display — without goroutine leaks or frame-pool
// loss, and Decode returns the context's error.
//
// The returned Stats are non-nil even alongside an error, carrying the
// teardown gauges (notably Stats.LeakedFrameBytes, always zero).
func Decode(ctx context.Context, src Source, opts ...Option) (*Stats, error) {
	cfg := decodeConfig{opt: stream.Options{Options: core.Options{
		Mode:    core.ModeSliceImproved,
		Workers: runtime.NumCPU(),
	}}}
	for _, o := range opts {
		o(&cfg)
	}
	// WithWorkers(0) and negatives mean "the default", not an error:
	// only a hand-built core.Options can still reject a worker count.
	if cfg.opt.Workers <= 0 {
		cfg.opt.Workers = runtime.NumCPU()
	}
	if cfg.sink != nil {
		if cfg.opt.Obs == nil {
			cfg.opt.Obs = obs.New(0)
		}
		cfg.opt.Obs.SetSink(cfg.sink)
	}
	return stream.Decode(ctx, src.r, cfg.opt)
}
