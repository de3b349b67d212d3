package mpeg2par_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"mpeg2par"
)

func apiStream(t testing.TB) *mpeg2par.Stream {
	t.Helper()
	res, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{
		Width: 96, Height: 64, Pictures: 12, GOPSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDecodeSourcesMatch: FromBytes and FromReader must both reproduce
// the sequential baseline bit-exactly in every mode.
func TestDecodeSourcesMatch(t *testing.T) {
	res := apiStream(t)
	want := sequentialFrames(t, res.Data)
	for _, mode := range []mpeg2par.Mode{
		mpeg2par.ModeSequential, mpeg2par.ModeGOP,
		mpeg2par.ModeSliceSimple, mpeg2par.ModeSliceImproved,
	} {
		for _, src := range []struct {
			name string
			s    mpeg2par.Source
		}{
			{"bytes", mpeg2par.FromBytes(res.Data)},
			{"reader", mpeg2par.FromReader(bytes.NewReader(res.Data))},
		} {
			var got []*mpeg2par.Frame
			st, err := mpeg2par.Decode(context.Background(), src.s,
				mpeg2par.WithMode(mode),
				mpeg2par.WithWorkers(3),
				mpeg2par.WithChunkSize(777),
				mpeg2par.WithFrameSink(func(f *mpeg2par.Frame) { got = append(got, f.Clone()) }),
			)
			if err != nil {
				t.Fatalf("%v %s: %v", mode, src.name, err)
			}
			if st.Displayed != len(want) || len(got) != len(want) {
				t.Fatalf("%v %s: displayed %d (sink %d), want %d", mode, src.name, st.Displayed, len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%v %s: frame %d differs from sequential decode", mode, src.name, i)
				}
			}
		}
	}
}

// TestDecodeOptionWiring checks the functional options reach the
// pipeline: resilience, window, and worker settings show up in Stats.
func TestDecodeOptionWiring(t *testing.T) {
	res := apiStream(t)
	st, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(res.Data),
		mpeg2par.WithMode(mpeg2par.ModeGOP),
		mpeg2par.WithWorkers(2),
		mpeg2par.WithResilience(mpeg2par.ConcealSlice),
		mpeg2par.WithMaxInFlight(1),
		mpeg2par.WithChunkSize(512),
	)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != mpeg2par.ModeGOP || st.Workers != 2 {
		t.Fatalf("stats report mode %v workers %d", st.Mode, st.Workers)
	}
	if st.PeakInFlightBytes <= 0 || st.PeakInFlightBytes >= int64(len(res.Data)) {
		t.Fatalf("peak in-flight %d not bounded below stream length %d", st.PeakInFlightBytes, len(res.Data))
	}
	if st.LeakedFrameBytes != 0 {
		t.Fatalf("leaked %d frame bytes", st.LeakedFrameBytes)
	}
}

// finiteStats fails the test if any rate or gauge in st is non-finite —
// +Inf or NaN would break every JSON consumer of the stats.
func finiteStats(t *testing.T, name string, st *mpeg2par.Stats) {
	t.Helper()
	for _, g := range []struct {
		field string
		v     float64
	}{
		{"ScanRate", st.ScanRate},
		{"PicturesPerSecond", st.PicturesPerSecond()},
	} {
		if math.IsInf(g.v, 0) || math.IsNaN(g.v) {
			t.Fatalf("%s: %s = %v, want finite", name, g.field, g.v)
		}
	}
}

// TestDecodeOptionDefaults is the option-validation matrix: zero and
// negative values of every numeric option, and a nil sink, must select
// the documented defaults — not error out — and the resulting Stats
// must be truthful (Workers matches the per-worker breakdown) and
// finite in every mode.
func TestDecodeOptionDefaults(t *testing.T) {
	res := apiStream(t)
	cases := []struct {
		name string
		opts []mpeg2par.Option
	}{
		{"workers-zero", []mpeg2par.Option{mpeg2par.WithWorkers(0)}},
		{"workers-negative", []mpeg2par.Option{mpeg2par.WithWorkers(-3)}},
		{"chunk-zero", []mpeg2par.Option{mpeg2par.WithChunkSize(0)}},
		{"chunk-negative", []mpeg2par.Option{mpeg2par.WithChunkSize(-1)}},
		{"inflight-zero", []mpeg2par.Option{mpeg2par.WithMaxInFlight(0)}},
		{"inflight-negative", []mpeg2par.Option{mpeg2par.WithMaxInFlight(-8)}},
		{"nil-sink", []mpeg2par.Option{mpeg2par.WithFrameSink(nil)}},
		{"all-defaults", nil},
	}
	modes := []mpeg2par.Mode{
		mpeg2par.ModeSequential, mpeg2par.ModeGOP,
		mpeg2par.ModeSliceSimple, mpeg2par.ModeSliceImproved,
	}
	for _, tc := range cases {
		for _, mode := range modes {
			name := tc.name + "/" + mode.String()
			opts := append([]mpeg2par.Option{mpeg2par.WithMode(mode)}, tc.opts...)
			st, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(res.Data), opts...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if st.Workers < 1 {
				t.Fatalf("%s: Stats.Workers = %d", name, st.Workers)
			}
			if st.Workers != len(st.WorkerStats) {
				t.Fatalf("%s: Stats.Workers = %d but %d worker breakdowns",
					name, st.Workers, len(st.WorkerStats))
			}
			finiteStats(t, name, st)
		}
	}
}

// TestWithWorkersZeroUsesNumCPU is the regression test for
// WithWorkers(0): it used to flow unvalidated into the core and fail
// with "need at least one worker"; it must select the documented
// default instead.
func TestWithWorkersZeroUsesNumCPU(t *testing.T) {
	res := apiStream(t)
	st, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(res.Data),
		mpeg2par.WithMode(mpeg2par.ModeGOP),
		mpeg2par.WithWorkers(0),
	)
	if err != nil {
		t.Fatalf("WithWorkers(0): %v", err)
	}
	if want := runtime.NumCPU(); st.Workers != want {
		t.Fatalf("WithWorkers(0): Stats.Workers = %d, want NumCPU = %d", st.Workers, want)
	}
}

// TestSequentialStatsWorkers is the regression test for the sequential
// worker-count gauge: ModeSequential runs on one worker regardless of
// the requested count, and Stats.Workers must say so.
func TestSequentialStatsWorkers(t *testing.T) {
	res := apiStream(t)

	st, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(res.Data),
		mpeg2par.WithMode(mpeg2par.ModeSequential),
		mpeg2par.WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 1 || len(st.WorkerStats) != 1 {
		t.Fatalf("sequential: Stats.Workers = %d (%d breakdowns), want 1",
			st.Workers, len(st.WorkerStats))
	}
}

// TestStatsMarshalJSON: a decode's Stats must always survive
// encoding/json (mpeg2bench serializes them), which +Inf or NaN gauges
// would break.
func TestStatsMarshalJSON(t *testing.T) {
	res := apiStream(t)
	st, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(res.Data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
}

// TestWithTrace: a recorder attached to a decode yields a non-empty
// timeline whose Chrome-trace export is well-formed JSON, and tracing
// does not change what gets decoded.
func TestWithTrace(t *testing.T) {
	res := apiStream(t)
	rec := mpeg2par.NewTraceRecorder(0)
	st, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(res.Data),
		mpeg2par.WithMode(mpeg2par.ModeSliceImproved),
		mpeg2par.WithWorkers(3),
		mpeg2par.WithTrace(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	tl := rec.Snapshot()
	if len(tl.Events) == 0 {
		t.Fatal("traced decode recorded no events")
	}
	if tl.Mode != "slice-improved" || tl.Workers != st.Workers {
		t.Fatalf("timeline meta %q/%d, want slice-improved/%d", tl.Mode, tl.Workers, st.Workers)
	}
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	sum := tl.Summary()
	if sum.Displayed != st.Displayed {
		t.Fatalf("summary displayed %d, stats displayed %d", sum.Displayed, st.Displayed)
	}
}

// TestWithEventSink: the streaming sink sees every recorded event.
func TestWithEventSink(t *testing.T) {
	res := apiStream(t)
	var mu sync.Mutex
	n := 0
	_, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(res.Data),
		mpeg2par.WithWorkers(2),
		mpeg2par.WithEventSink(func(mpeg2par.TimelineEvent) {
			mu.Lock()
			n++
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if n == 0 {
		t.Fatal("event sink never called")
	}
}

// TestDecodeCancel: a cancelled context surfaces context.Canceled with
// teardown-clean stats.
func TestDecodeCancel(t *testing.T) {
	res := apiStream(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := mpeg2par.Decode(ctx, mpeg2par.FromBytes(res.Data))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if st == nil || st.LeakedFrameBytes != 0 {
		t.Fatalf("teardown stats %+v", st)
	}
}

// TestWithAutoTune: the auto-tuned decode must match the sequential
// baseline bit-exactly and report its resolved decision in Stats.Auto.
func TestWithAutoTune(t *testing.T) {
	res := apiStream(t)
	want := sequentialFrames(t, res.Data)
	var got []*mpeg2par.Frame
	st, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(res.Data),
		mpeg2par.WithAutoTune(),
		mpeg2par.WithWorkers(3),
		mpeg2par.WithFrameSink(func(f *mpeg2par.Frame) { got = append(got, f.Clone()) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if st.Auto == nil {
		t.Fatal("Stats.Auto not reported")
	}
	if st.Mode == mpeg2par.ModeAuto {
		t.Fatalf("Stats.Mode still ModeAuto, want the resolved mode")
	}
	if st.Auto.Workers < 1 || st.Auto.Workers > 3 {
		t.Fatalf("auto chose %d workers outside [1,3]", st.Auto.Workers)
	}
	if len(got) != len(want) {
		t.Fatalf("%d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("frame %d differs from sequential baseline", i)
		}
	}
}

// TestWithPacking: overriding the packing discipline never changes
// decoded output.
func TestWithPacking(t *testing.T) {
	res := apiStream(t)
	want := sequentialFrames(t, res.Data)
	for _, pk := range []struct {
		name string
		p    mpeg2par.Packing
		seed int64
	}{
		{"lpt", mpeg2par.PackLPT, 0},
		{"fifo", mpeg2par.PackFIFO, 0},
	} {
		var got []*mpeg2par.Frame
		_, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(res.Data),
			mpeg2par.WithMode(mpeg2par.ModeSliceImproved),
			mpeg2par.WithWorkers(3),
			mpeg2par.WithPacking(pk.p, pk.seed),
			mpeg2par.WithFrameSink(func(f *mpeg2par.Frame) { got = append(got, f.Clone()) }),
		)
		if err != nil {
			t.Fatalf("%s: %v", pk.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d frames, want %d", pk.name, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: frame %d differs from sequential baseline", pk.name, i)
			}
		}
	}
}
