package obs_test

import (
	"bytes"
	"context"
	"testing"

	"mpeg2par/internal/core"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/obs"
	"mpeg2par/internal/stream"
)

// End-to-end: tracing must observe without perturbing. Every mode, batch
// and streaming, decodes bit-identically with a tracer attached, and the
// timeline it produces is non-trivial and exports to a valid trace file.

func testStream(t testing.TB) []byte {
	t.Helper()
	res, err := encoder.EncodeSequence(encoder.Config{
		Width: 96, Height: 64, Pictures: 12, GOPSize: 4,
		BitRate: 2_000_000, FrameRate: 30,
	}, frame.NewSynth(96, 64))
	if err != nil {
		t.Fatal(err)
	}
	return res.Data
}

func collectFrames(frames *[]*frame.Frame) func(*frame.Frame) {
	return func(f *frame.Frame) { *frames = append(*frames, f.Clone()) }
}

func TestTracedDecodeBitExact(t *testing.T) {
	data := testStream(t)

	var want []*frame.Frame
	if _, err := core.Decode(data, core.Options{
		Mode: core.ModeSequential, Workers: 1, Sink: collectFrames(&want),
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline decoded no frames")
	}

	modes := []core.Mode{
		core.ModeSequential, core.ModeGOP,
		core.ModeSliceSimple, core.ModeSliceImproved,
	}
	check := func(name string, got []*frame.Frame, tl *obs.Timeline, streaming bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: decoded %d frames, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: frame %d differs from untraced sequential decode", name, i)
			}
		}
		if tl.Dropped != 0 {
			t.Fatalf("%s: dropped %d events on a small stream", name, tl.Dropped)
		}
		counts := map[obs.Kind]int{}
		for _, e := range tl.Events {
			counts[e.Kind]++
		}
		if counts[obs.KindTask] == 0 {
			t.Fatalf("%s: no task events recorded", name)
		}
		if counts[obs.KindDisplay] != len(want) {
			t.Fatalf("%s: %d display events, want %d", name, counts[obs.KindDisplay], len(want))
		}
		if counts[obs.KindScan] == 0 {
			t.Fatalf("%s: no scan events recorded", name)
		}
		if streaming && counts[obs.KindFeed] == 0 {
			t.Fatalf("%s: streaming decode recorded no feed events", name)
		}
		var buf bytes.Buffer
		if err := tl.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("%s: export: %v", name, err)
		}
		if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
			t.Fatalf("%s: exported trace invalid: %v", name, err)
		}
		sum := tl.Summary()
		if sum.Displayed != len(want) {
			t.Fatalf("%s: summary displayed %d, want %d", name, sum.Displayed, len(want))
		}
	}

	for _, mode := range modes {
		// Batch path.
		var got []*frame.Frame
		rec := obs.New(0)
		st, err := core.Decode(data, core.Options{
			Mode: mode, Workers: 3, Sink: collectFrames(&got), Obs: rec,
		})
		if err != nil {
			t.Fatalf("batch %v: %v", mode, err)
		}
		tl := rec.Snapshot()
		if tl.Mode != mode.String() || tl.Workers != st.Workers {
			t.Fatalf("batch %v: timeline meta %q/%d, stats %q/%d",
				mode, tl.Mode, tl.Workers, mode.String(), st.Workers)
		}
		check("batch "+mode.String(), got, tl, false)

		// Streaming pipeline.
		got = nil
		rec = obs.New(0)
		if _, err := stream.Decode(context.Background(), stream.Source{R: bytes.NewReader(data)}, stream.Options{
			Options: core.Options{
				Mode: mode, Workers: 3, Sink: collectFrames(&got), Obs: rec,
			},
			ChunkSize: 777,
		}); err != nil {
			t.Fatalf("streaming %v: %v", mode, err)
		}
		check("streaming "+mode.String(), got, rec.Snapshot(), true)
	}
}

// TestTracedResilientDecode: the tracer also covers the resilient plan
// executors (batch, all grains), without changing their output.
func TestTracedResilientDecode(t *testing.T) {
	data := testStream(t)
	var want []*frame.Frame
	if _, err := core.Decode(data, core.Options{
		Mode: core.ModeSequential, Workers: 1,
		Resilience: core.ConcealSlice, Sink: collectFrames(&want),
	}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.Mode{core.ModeGOP, core.ModeSliceSimple, core.ModeSliceImproved} {
		var got []*frame.Frame
		rec := obs.New(0)
		if _, err := core.Decode(data, core.Options{
			Mode: mode, Workers: 3,
			Resilience: core.ConcealSlice, Sink: collectFrames(&got), Obs: rec,
		}); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: decoded %d frames, want %d", mode, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%v: frame %d differs from traced-free sequential", mode, i)
			}
		}
		tl := rec.Snapshot()
		hasTask := false
		for _, e := range tl.Events {
			if e.Kind == obs.KindTask {
				hasTask = true
				break
			}
		}
		if !hasTask {
			t.Fatalf("%v: resilient decode recorded no task events", mode)
		}
	}
}

// BenchmarkDecodeTracer measures the tracer's overhead on the decode
// hot path: "off" (nil tracer, the default) vs "on". The disabled cost
// must be a pointer test per hook — the acceptance bound is <2%.
func BenchmarkDecodeTracer(b *testing.B) {
	data := testStream(b)
	for _, bc := range []struct {
		name string
		mk   func() *obs.Tracer
	}{
		{"off", func() *obs.Tracer { return nil }},
		{"on", func() *obs.Tracer { return obs.New(0) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Decode(data, core.Options{
					Mode: core.ModeSliceImproved, Workers: 2, Obs: bc.mk(),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
