package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/obs"
	"mpeg2par/internal/server"
	"mpeg2par/internal/stream"
)

// loadConfig shapes one run: Streams identical synthetic streams pushed
// through one decode service at once, deliberately past pool capacity.
type loadConfig struct {
	Workers         int // pool size (0 = runtime.NumCPU())
	Streams         int // concurrent streams
	PriorityClasses int // streams assigned round-robin to classes 0..n-1

	// Per-stream synthetic source.
	Width, Height, Pictures, GOPSize int

	Deadline    time.Duration // per-frame budget
	MaxInFlight int           // scan-ahead bound per stream

	// SinkDelay is an artificial per-frame delivery cost. Zero is fine on
	// slow hosts; on fast ones a small delay keeps the pool saturated so
	// the run actually exercises the overload machinery.
	SinkDelay time.Duration
}

// loadPoint is the aggregate measurement of one run.
type loadPoint struct {
	Workers         int `json:"workers"`
	Streams         int `json:"streams"`
	PriorityClasses int `json:"priority_classes"`

	WallMS              float64 `json:"wall_ms"`
	AggregatePicsPerSec float64 `json:"aggregate_pics_per_sec"`
	LatencyP50MS        float64 `json:"frame_latency_p50_ms"`
	LatencyP99MS        float64 `json:"frame_latency_p99_ms"`

	// FairnessRatio is max/min per-stream throughput within a priority
	// class, worst class kept (1.0 = perfectly even service).
	FairnessRatio float64 `json:"fairness_max_min_ratio"`

	ShedBPictures    int   `json:"shed_b_pictures"`
	ShedRefPictures  int   `json:"shed_ref_pictures"`
	DegradedPictures int   `json:"degraded_pictures"`
	DeadlineMisses   int64 `json:"deadline_misses"`
	SlackSheds       int64 `json:"slack_sheds"`
	Assists          int64 `json:"assists"`
	Rejected         int64 `json:"rejected"`
	Pauses           int64 `json:"pauses"`
	Wedged           int64 `json:"wedged"`
	MaxRung          int   `json:"max_rung"`

	// Frame lending across streams, as server.Metrics defines it, read
	// once every stream is done (so the spare stock itself is empty).
	FramesReused   int64 `json:"frames_reused"`
	FramesFresh    int64 `json:"frames_fresh"`
	SpareBytes     int64 `json:"spare_bytes"`
	SparePeakBytes int64 `json:"spare_peak_bytes"`
}

// reuseShare is the share of the frames streams drew that came from the
// spare stock: FramesReused / (FramesReused + FramesFresh).
func (pt *loadPoint) reuseShare() float64 {
	if n := pt.FramesReused + pt.FramesFresh; n > 0 {
		return float64(pt.FramesReused) / float64(n)
	}
	return 0
}

// streamLine is one stream's line in the per-stream report.
type streamLine struct {
	ID         int     `json:"id"`
	Priority   int     `json:"priority"`
	PicsPerSec float64 `json:"pics_per_sec"`
	P50MS      float64 `json:"latency_p50_ms"`
	P99MS      float64 `json:"latency_p99_ms"`
	Misses     int     `json:"deadline_misses"`
	Shed       int     `json:"shed_pictures"`
	Paused     int     `json:"paused"`
}

// loadResult is the whole outcome of one run.
type loadResult struct {
	Point     loadPoint    `json:"point"`
	PerStream []streamLine `json:"per_stream"`
	TraceNote string       `json:"trace_note"`
}

// runLoad drives the overload against the real service. It fails if any
// stream errs, displays fewer pictures than it holds, or leaks frame
// bytes, if an admitted stream's obs lane lacks its admission record,
// or if the trace does not export as valid Chrome JSON.
func runLoad(cfg loadConfig) (*loadResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	enc, err := encoder.EncodeSequence(encoder.Config{
		Width: cfg.Width, Height: cfg.Height, Pictures: cfg.Pictures,
		GOPSize: cfg.GOPSize, RepeatSequenceHeader: true,
	}, frame.NewSynth(cfg.Width, cfg.Height))
	if err != nil {
		return nil, fmt.Errorf("service stream: %w", err)
	}

	tr := obs.New(0)
	srv := server.NewServer(server.Config{
		Workers: cfg.Workers, MaxStreams: cfg.Streams, QueueDepth: cfg.Streams,
		DefaultDemand: 0.01, // overload on purpose: admit everyone
		Tick:          5 * time.Millisecond,
		PauseBase:     10 * time.Millisecond,
		Obs:           tr,
	})

	// The ladder is only visible between ticks; sample its high-water
	// mark while the load runs.
	maxRung := 0
	stopRung := make(chan struct{})
	var rungWG sync.WaitGroup
	rungWG.Add(1)
	go func() {
		defer rungWG.Done()
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
		ss  *server.StreamStats
		err error
	}
	start := make(chan struct{})
	results := make(chan result, cfg.Streams)
	for i := 0; i < cfg.Streams; i++ {
		prio := i % cfg.PriorityClasses
		go func(prio int) {
			<-start
			var sink func(*frame.Frame)
			if cfg.SinkDelay > 0 {
				sink = func(*frame.Frame) { time.Sleep(cfg.SinkDelay) }
			}
			ss, err := srv.Decode(context.Background(), stream.Source{Data: enc.Data}, server.StreamConfig{
				Priority: prio, Resilience: core.ConcealSlice,
				Deadline: cfg.Deadline, MaxInFlight: cfg.MaxInFlight, Sink: sink,
			})
			results <- result{ss, err}
		}(prio)
	}
	t0 := time.Now()
	close(start)

	var all []*server.StreamStats
	var errs []error
	var allLats []time.Duration
	totalPics := 0
	for i := 0; i < cfg.Streams; i++ {
		r := <-results
		if r.err != nil {
			errs = append(errs, r.err)
			continue
		}
		all = append(all, r.ss)
		totalPics += r.ss.Stats.Displayed
		allLats = append(allLats, r.ss.Latencies...)
	}
	wall := time.Since(t0)
	close(stopRung)
	rungWG.Wait()
	m := srv.Metrics()
	srv.Close()

	if len(errs) > 0 {
		return nil, fmt.Errorf("%d of %d streams failed under load, first: %w",
			len(errs), cfg.Streams, errs[0])
	}
	if m.SpareBytes != 0 {
		return nil, fmt.Errorf("every stream has ended and the frame store still holds %d spare bytes", m.SpareBytes)
	}
	for _, ss := range all {
		if ss.Stats.Displayed != ss.Stats.Pictures {
			return nil, fmt.Errorf("stream %d displayed %d of %d pictures", ss.ID, ss.Stats.Displayed, ss.Stats.Pictures)
		}
		if ss.Stats.LeakedFrameBytes != 0 {
			return nil, fmt.Errorf("stream %d leaked %d frame bytes", ss.ID, ss.Stats.LeakedFrameBytes)
		}
	}

	// Per-stream report and per-class fairness.
	res := &loadResult{}
	classTP := map[int][]float64{}
	pt := loadPoint{
		Workers: cfg.Workers, Streams: cfg.Streams, PriorityClasses: cfg.PriorityClasses,
		WallMS:              ms(wall),
		AggregatePicsPerSec: rate(float64(totalPics), wall),
		DeadlineMisses:      m.Misses,
		SlackSheds:          m.SlackSheds,
		Assists:             m.Assists,
		Rejected:            m.Rejected,
		Pauses:              m.Pauses,
		Wedged:              m.Wedged,
		MaxRung:             maxRung,
		FramesReused:        m.FramesReused,
		FramesFresh:         m.FramesFresh,
		SpareBytes:          m.SpareBytes,
		SparePeakBytes:      m.SparePeakBytes,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	for _, ss := range all {
		st := ss.Stats
		tp := rate(float64(st.Displayed), st.Wall)
		classTP[ss.Priority] = append(classTP[ss.Priority], tp)
		pt.ShedBPictures += st.Shed.BPictures
		pt.ShedRefPictures += st.Shed.RefPictures
		pt.DegradedPictures += st.Shed.DegradedPictures
		res.PerStream = append(res.PerStream, streamLine{
			ID: ss.ID, Priority: ss.Priority, PicsPerSec: tp,
			P50MS: ms(ss.LatencyP50()), P99MS: ms(ss.LatencyP99()),
			Misses: ss.DeadlineMisses, Shed: st.Shed.Total() + st.Shed.DegradedPictures,
			Paused: ss.Paused,
		})
	}
	for _, tps := range classTP {
		lo, hi := tps[0], tps[0]
		for _, tp := range tps {
			lo, hi = min(lo, tp), max(hi, tp)
		}
		if lo > 0 && hi/lo > pt.FairnessRatio {
			pt.FairnessRatio = hi / lo
		}
	}
	if len(allLats) > 0 {
		sort.Slice(allLats, func(i, j int) bool { return allLats[i] < allLats[j] })
		pt.LatencyP50MS = ms(allLats[int(0.50*float64(len(allLats)-1))])
		pt.LatencyP99MS = ms(allLats[int(0.99*float64(len(allLats)-1))])
	}
	res.Point = pt

	// Trace check: every admitted stream must have its admission event on
	// its own lane, and the export must be a valid Chrome trace.
	tl := tr.Snapshot()
	admits := map[int]bool{}
	for _, e := range tl.Events {
		if id, ok := obs.StreamOf(e.Lane); ok && e.Kind == obs.KindAdmit {
			admits[id] = true
		}
	}
	for _, ss := range all {
		if !admits[ss.ID] {
			return nil, fmt.Errorf("stream %d admitted but has no KindAdmit event on its lane", ss.ID)
		}
	}
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		return nil, fmt.Errorf("service trace invalid: %w", err)
	}
	res.TraceNote = fmt.Sprintf("%d events across %d stream lanes, trace valid, %d dropped",
		len(tl.Events), len(admits), tl.Dropped)
	return res, nil
}

// WriteText renders the load report.
func (r *loadResult) WriteText(w io.Writer) {
	pt := r.Point
	fmt.Fprintf(w, "service load: %d streams x %d-class priorities on %d workers\n",
		pt.Streams, pt.PriorityClasses, pt.Workers)
	fmt.Fprintf(w, "  wall %.1fms   aggregate %.0f pics/s   frame latency p50 %.2fms p99 %.2fms\n",
		pt.WallMS, pt.AggregatePicsPerSec, pt.LatencyP50MS, pt.LatencyP99MS)
	fmt.Fprintf(w, "  fairness max/min within class %.2f   max rung %d\n", pt.FairnessRatio, pt.MaxRung)
	fmt.Fprintf(w, "  shed: %d B, %d ref, %d degraded (%d by slack)   misses %d   assists %d   rejected %d   pauses %d   wedged %d\n",
		pt.ShedBPictures, pt.ShedRefPictures, pt.DegradedPictures, pt.SlackSheds,
		pt.DeadlineMisses, pt.Assists, pt.Rejected, pt.Pauses, pt.Wedged)
	fmt.Fprintf(w, "  frames: %d reused, %d allocated (%.0f %% reused)   spare %d bytes now, %d at peak\n",
		pt.FramesReused, pt.FramesFresh, 100*pt.reuseShare(), pt.SpareBytes, pt.SparePeakBytes)
	fmt.Fprintf(w, "  obs: %s\n", r.TraceNote)
	if len(r.PerStream) == 0 {
		return
	}
	fmt.Fprintf(w, "  %4s %4s %10s %9s %9s %6s %5s %6s\n",
		"id", "prio", "pics/s", "p50 ms", "p99 ms", "miss", "shed", "paused")
	for _, ln := range r.PerStream {
		fmt.Fprintf(w, "  %4d %4d %10.1f %9.2f %9.2f %6d %5d %6d\n",
			ln.ID, ln.Priority, ln.PicsPerSec, ln.P50MS, ln.P99MS, ln.Misses, ln.Shed, ln.Paused)
	}
}

// WriteJSON emits the result as indented JSON.
func (r *loadResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rate returns n per second of d, or 0 when d is not positive (JSON
// cannot carry the +Inf a zero duration would give).
func rate(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}
