package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestServiceLoadSmoke runs a scaled-down overload: every stream
// completes without a leak, each admitted stream's admission event sits
// on its own lane, the trace exports as valid Chrome JSON (runLoad fails
// otherwise), nothing wedges, and both report encodings render.
func TestServiceLoadSmoke(t *testing.T) {
	res, err := runLoad(loadConfig{
		Workers: 1, Streams: 8, PriorityClasses: 2,
		Width: 48, Height: 32, Pictures: 8, GOPSize: 4,
		Deadline: 250 * time.Millisecond, MaxInFlight: 2,
		SinkDelay: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Point
	if pt.Streams != 8 || len(res.PerStream) != 8 {
		t.Fatalf("point %+v, %d per-stream lines", pt, len(res.PerStream))
	}
	if pt.Wedged != 0 || pt.Rejected != 0 {
		t.Fatalf("smoke run wedged %d / rejected %d streams", pt.Wedged, pt.Rejected)
	}
	if pt.AggregatePicsPerSec <= 0 || pt.FairnessRatio < 1 {
		t.Fatalf("degenerate measurement: %+v", pt)
	}
	if pt.LatencyP99MS < pt.LatencyP50MS {
		t.Fatalf("p99 %.2fms below p50 %.2fms", pt.LatencyP99MS, pt.LatencyP50MS)
	}
	if !strings.Contains(res.TraceNote, "8 stream lanes, trace valid") {
		t.Fatalf("trace note %q", res.TraceNote)
	}

	var text bytes.Buffer
	res.WriteText(&text)
	if !strings.Contains(text.String(), "service load: 8 streams") {
		t.Fatalf("text report:\n%s", text.String())
	}
	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back loadResult
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Point.Streams != 8 {
		t.Fatalf("JSON round-trip lost the point: %+v", back.Point)
	}
}
