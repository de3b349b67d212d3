//go:build unix

package mpeg2par_test

import (
	"context"
	"syscall"
	"testing"
	"time"

	"mpeg2par"
)

// TestSlowSinkBurnsNoCPU: a consumer that takes 20 ms over every frame
// makes the decoder wait for it most of the time, and that wait has no
// bound the decoder knows — so the workers must sleep through it, not
// poll: the process's CPU time stays far below the wall time. (Which
// worker waits where depends on the schedule; the rule itself — a worker
// inside the sink is not "running a task", so its peer sleeps on the depth
// window — is pinned white-box by core.TestTakeParksOnUnboundedWaits.)
func TestSlowSinkBurnsNoCPU(t *testing.T) {
	s, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{
		Width: 352, Height: 240, Pictures: 13, GOPSize: 13, IPDistance: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cpuTime := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	frames := 0
	cpu0, t0 := cpuTime(), time.Now()
	_, err = mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(s.Data),
		mpeg2par.WithMode(mpeg2par.ModeSliceImproved), mpeg2par.WithWorkers(2),
		mpeg2par.WithFrameSink(func(*mpeg2par.Frame) {
			frames++
			time.Sleep(20 * time.Millisecond)
		}))
	cpu, wall := cpuTime()-cpu0, time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if frames != 13 {
		t.Fatalf("%d frames, want 13", frames)
	}
	if cpu > wall/2 {
		t.Fatalf("decode behind a slow consumer used %v of CPU in %v of wall time", cpu, wall)
	}
}
