package mpeg2par

import (
	"context"
	"io"
	"runtime"

	"mpeg2par/internal/core"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/obs"
	"mpeg2par/internal/stream"
)

// Source is where a decode reads its elementary stream from. Construct
// one with FromBytes or FromReader; the zero Source is an empty stream.
type Source struct {
	s stream.Source
}

// FromBytes sources a decode from an in-memory elementary stream. The
// decode reads data where it lies: no copy of it is made, and no byte of
// it is ever written. The caller must not modify data until the call that
// reads it (Decode, Server.Decode, BuildIndex) has returned.
func FromBytes(data []byte) Source {
	return Source{s: stream.Source{Data: data}}
}

// FromReader sources a decode from r. The stream is consumed
// incrementally: the pipeline holds only the scan-ahead window in
// memory (see WithMaxInFlight), so r may be a file, a socket, or any
// other reader far larger than memory.
func FromReader(r io.Reader) Source {
	return Source{s: stream.Source{R: r}}
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
// pictures may be fed and not yet delivered before the scan process
// blocks. Smaller values cut peak memory (Stats.PeakInFlightBytes);
// larger values let the scan run further ahead. Zero (the default)
// selects 2×workers+2. For a FromBytes source the in-flight bytes are the
// caller's bytes of those groups, read in place: the bound then limits
// how far the plan runs ahead, and no stream bytes are buffered.
func WithMaxInFlight(n int) Option {
	return func(c *decodeConfig) { c.opt.MaxInFlight = n }
}

// WithChunkSize sets the read granularity over a FromReader source
// (default 64 KiB).
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

// WithSpeculativeSplit has no effect: guessed split points never
// verified (the DC and motion predictors are not at their reset values
// in the middle of a slice), so only WithIndex splits a slice. Its one
// caller is benchmark/probes.go, whose vldsplit.spec_hit_share reads
// share(0, 0) = 0 as it always did; the next change to the benchmark
// deletes the option together with that probe and metric.
func WithSpeculativeSplit(bool) Option {
	return func(*decodeConfig) {}
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
// loss: once ctx is done no further frame reaches the sink, and Decode
// returns the context's error, however late the cancel lands — after the
// whole stream was scanned, or while the sink holds the last frame.
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
	return stream.Decode(ctx, src.s, cfg.opt)
}
