package mpeg2par

import (
	"context"
	"time"

	"mpeg2par/internal/frame"
	"mpeg2par/internal/server"
)

// Service errors (returned by Server.Decode, wrapped with the stream
// id; test with errors.Is).
var (
	// ErrRejected: admission control turned the stream away — the wait
	// queue was full, or the overload ladder reached its top rung.
	ErrRejected = server.ErrRejected
	// ErrWedged: the watchdog failed a stream that stopped making
	// progress rather than let it hold resources forever.
	ErrWedged = server.ErrWedged
	// ErrServerClosed: the server was shut down.
	ErrServerClosed = server.ErrServerClosed
)

// ServerConfig tunes a decode Server. The zero value is usable: every
// field has a documented default.
type ServerConfig struct {
	// Workers is the shared worker-pool size all streams multiplex
	// onto. Default: the number of CPUs.
	Workers int
	// MaxStreams caps concurrently admitted streams (default
	// 8×Workers); QueueDepth bounds the admission wait queue (default
	// 2×Workers). Arrivals beyond both are rejected with ErrRejected.
	MaxStreams int
	QueueDepth int
	// TargetUtilization scales the admission capacity estimate: a
	// stream is admitted while the sum of per-stream demand estimates
	// stays under Workers×TargetUtilization. Default 1.0.
	TargetUtilization float64
	// Watchdog fails a stream that makes no progress for this long
	// (default 30s; negative disables).
	Watchdog time.Duration
	// DisableAutoDegrade freezes the graceful-degradation ladder;
	// Server.SetDegradation still moves it manually.
	DisableAutoDegrade bool
	// Trace, when non-nil, records the service's scheduling events:
	// task spans on worker lanes, and admission, shed, degradation,
	// pause and display events on one lane per stream.
	Trace *TraceRecorder
}

// ServiceMetrics is a point-in-time snapshot of a Server's gauges.
type ServiceMetrics = server.Metrics

// SlackHist is a fixed-bucket histogram of deadline slack; StreamStats
// carries one of predicted (feed-time) and one of actual (delivery)
// slack for every deadline-bearing stream.
type SlackHist = server.SlackHist

// StreamStats reports one stream served by a Server: the decode-side
// Stats (including Stats.Shed, the load-shedding accounting kept
// disjoint from Stats.Errors), admission queue wait, raw frame
// latencies with P50/P99 accessors, deadline misses, and pause count.
type StreamStats = server.StreamStats

// StreamOption configures one stream passed to Server.Decode.
type StreamOption func(*server.StreamConfig)

// WithStreamPriority sets the stream's priority class (default 0).
// Higher classes receive proportionally more pool service (weight
// priority+1) and are paused last under overload.
func WithStreamPriority(p int) StreamOption {
	return func(c *server.StreamConfig) { c.Priority = p }
}

// WithFrameDeadline sets the per-frame latency budget, measured from a
// frame being handed to the pool to its in-order delivery. Misses are
// counted in StreamStats and drive the overload ladder; frames are
// never dropped for missing a deadline (shedding is the ladder's job).
func WithFrameDeadline(d time.Duration) StreamOption {
	return func(c *server.StreamConfig) { c.Deadline = d }
}

// WithStreamMaxInFlight bounds the stream's scan-ahead: how many
// groups of pictures may be fed and not yet delivered before its
// scanner blocks (default 4).
func WithStreamMaxInFlight(n int) StreamOption {
	return func(c *server.StreamConfig) { c.MaxInFlight = n }
}

// WithStreamResilience selects the stream's error policy (default
// FailFast). Under overload the ladder may temporarily floor it at
// ConcealPicture, accounted in Stats.Shed.DegradedPictures.
func WithStreamResilience(r Resilience) StreamOption {
	return func(c *server.StreamConfig) { c.Resilience = r }
}

// WithStreamSink delivers the stream's frames, in display order, to
// sink (frame valid only during the call).
func WithStreamSink(sink FrameSink) StreamOption {
	return func(c *server.StreamConfig) {
		if sink == nil {
			c.Sink = nil
			return
		}
		c.Sink = func(f *frame.Frame) { sink(f) }
	}
}

// WithPicRate paces the stream at about rate pictures per second (a
// real-time source) and lets admission charge its true predicted cost
// instead of a flat default. Zero (the default) feeds as fast as
// backpressure allows.
func WithPicRate(rate float64) StreamOption {
	return func(c *server.StreamConfig) { c.PicRate = rate }
}

// WithStreamChunkSize sets the stream scanner's read granularity over a
// FromReader source (default 64 KiB).
func WithStreamChunkSize(n int) StreamOption {
	return func(c *server.StreamConfig) { c.ChunkSize = n }
}

// Server is the multi-stream decode service: N concurrent streams
// multiplexed onto one shared worker pool, with admission control from
// the calibrated cost model, per-stream budgets (priority, frame
// deadlines, scan-ahead), and a graceful-degradation ladder that sheds
// B pictures, then reference pictures plus a resilience floor, then
// pauses the lowest-priority class with bounded backoff, and only then
// rejects new streams. The pool runs earliest-deadline-first while any
// admitted stream has a frame deadline, and weighted fair order
// otherwise; under EDF, predicted slack from the calibrated cost model
// also sheds already-doomed frames at plan time, bit-exact for surviving
// frames. A group that starts while a worker is idle and nothing is
// queued takes the idle worker as a helper on its pictures' slices. See
// DESIGN.md, "Multi-stream service".
type Server struct {
	s *server.Server
}

// NewServer starts a decode service.
func NewServer(cfg ServerConfig) *Server {
	return &Server{s: server.NewServer(server.Config{
		Workers:            cfg.Workers,
		MaxStreams:         cfg.MaxStreams,
		QueueDepth:         cfg.QueueDepth,
		TargetUtilization:  cfg.TargetUtilization,
		Watchdog:           cfg.Watchdog,
		DisableAutoDegrade: cfg.DisableAutoDegrade,
		Obs:                cfg.Trace,
	})}
}

// Decode runs one stream through the service and blocks until it
// completes, fails, or ctx is cancelled — typically called on the
// connection's goroutine, one call per concurrent viewer. The returned
// StreamStats is non-nil in every case; cancellation and teardown leak
// no goroutines and no pooled frames (StreamStats.Stats.LeakedFrameBytes
// is zero). A cancel is seen for the stream's whole life: once ctx is
// cancelled no further frame reaches the sink, and Decode returns ctx's
// error — also when the cancel lands after the last group was fed, or
// while the sink holds the last frame.
func (sv *Server) Decode(ctx context.Context, src Source, opts ...StreamOption) (*StreamStats, error) {
	var cfg server.StreamConfig
	for _, o := range opts {
		o(&cfg)
	}
	return sv.s.Decode(ctx, src.s, cfg)
}

// Close rejects new streams, aborts admitted ones (their Decode calls
// return promptly with teardown stats), and waits for the pool to
// exit. Idempotent.
func (sv *Server) Close() error { return sv.s.Close() }

// Metrics returns a snapshot of the service's gauges.
func (sv *Server) Metrics() ServiceMetrics { return sv.s.Metrics() }

// Rung returns the degradation ladder's current position, 0 (normal)
// to 3 (pause + reject).
func (sv *Server) Rung() int { return sv.s.Rung() }

// SetDegradation forces the ladder to a rung (0..3) — deterministic
// control for tests and experiments, usually with
// ServerConfig.DisableAutoDegrade.
func (sv *Server) SetDegradation(rung int) { sv.s.SetDegradation(rung) }
