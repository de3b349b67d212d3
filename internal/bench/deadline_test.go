package bench

import (
	"io"
	"testing"
)

// TestDeadlineExperimentSmoke runs a scaled-down deadline study: both
// arms complete, every stream delivers every frame (the cell errors
// otherwise), the frozen-slack fair arm sheds nothing by slack, and
// streams that shed nothing verify bit-exact against the oracle. The
// miss-rate ratio itself is not gated here — it needs the full
// overloaded configuration and a quiet host; the recorded BENCH run
// asserts it.
func TestDeadlineExperimentSmoke(t *testing.T) {
	pt, err := DeadlineStudy(DeadlineConfig{
		Workers: 2, Loads: []int{6},
		Width: 96, Height: 64, Pictures: 16,
		Repeats: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pt.WriteText(io.Discard)
	if len(pt.Cells) != 2 {
		t.Fatalf("%d cells, want fair+edf", len(pt.Cells))
	}
	for _, c := range pt.Cells {
		if c.Frames != 6*16 {
			t.Fatalf("%s arm fed %d frames, want %d", c.Dispatch, c.Frames, 6*16)
		}
		if c.Dispatch == "fair" && c.SlackSheds != 0 {
			t.Fatalf("fair arm took slack actions while frozen: %+v", c)
		}
		if c.OracleStreams == 0 && c.SlackSheds+int64(c.ShedB+c.ShedRef) == 0 {
			t.Fatalf("%s arm shed nothing yet no stream verified against the oracle", c.Dispatch)
		}
	}
	if pt.MissImprovement <= 0 {
		t.Fatalf("miss improvement %v, want positive", pt.MissImprovement)
	}
}
