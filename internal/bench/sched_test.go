package bench

import "testing"

// TestSchedCompareSmoke runs the packing comparison on a small skewed
// stream and checks the property the packing is built on: in the
// deterministic replay of profiled costs, handing a picture's slices out
// longest-first by bytes never loses to slice order on makespan (the
// imbalance of a slice queue reads within a few percent of 1 either way
// and is logged; the live columns are reported, not asserted — on a
// single-CPU host they only measure time-slicing).
func TestSchedCompareSmoke(t *testing.T) {
	res, err := SchedCompare(SchedConfig{
		Width: 352, Height: 240, GOPSize: 4, Pictures: 24, Workers: 4, Repeats: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GOPSkew <= 1 || res.SliceSkew <= 1 {
		t.Fatalf("skew not measured: gop %.2f, slice %.2f", res.GOPSkew, res.SliceSkew)
	}
	pts := map[string]SchedPoint{}
	for _, pt := range res.Points {
		pts[pt.Mode+"/"+pt.Packing] = pt
		if pt.PicsPerSec <= 0 || pt.WallMS <= 0 {
			t.Fatalf("%s/%s: live decode not measured: %+v", pt.Mode, pt.Packing, pt)
		}
	}
	// GOP mode runs groups in stream order whatever the packing: one row.
	if gop, ok := pts["gop/fifo"]; !ok || gop.SimMakespanMS <= 0 {
		t.Fatalf("gop point missing or not simulated: %+v", gop)
	}
	if _, ok := pts["gop/lpt"]; ok {
		t.Fatal("a gop/lpt point describes a schedule no engine runs")
	}
	fifo, ok := pts["slice-improved/fifo"]
	if !ok {
		t.Fatal("missing slice-improved/fifo point")
	}
	lpt, ok := pts["slice-improved/lpt"]
	if !ok {
		t.Fatal("missing slice-improved/lpt point")
	}
	if fifo.SimMakespanMS <= 0 || lpt.SimMakespanMS <= 0 {
		t.Fatalf("simulated makespans not measured: fifo %.2f, lpt %.2f",
			fifo.SimMakespanMS, lpt.SimMakespanMS)
	}
	// Small slack absorbs profiling jitter.
	if lpt.SimMakespanMS > fifo.SimMakespanMS*1.05 {
		t.Fatalf("LPT simulated makespan %.2fms worse than FIFO %.2fms",
			lpt.SimMakespanMS, fifo.SimMakespanMS)
	}
	auto, ok := pts["auto/lpt"]
	if !ok {
		t.Fatal("missing auto point")
	}
	if auto.Auto == "" {
		t.Fatal("auto point did not record its resolved choice")
	}
	t.Logf("slice-improved: fifo %.1fms/%.3f vs lpt %.1fms/%.3f (simulated makespan/imbalance); auto -> %s",
		fifo.SimMakespanMS, fifo.SimImbalance, lpt.SimMakespanMS, lpt.SimImbalance, auto.Auto)
}
