package simsched

import (
	"testing"
	"time"
)

func markIntra(pics []SimPicture, pattern string) []SimPicture {
	for i := range pics {
		pics[i].Intra = pattern[i%len(pattern)] == 'I'
	}
	return pics
}

func TestMaxConcurrencyBeatsImproved(t *testing.T) {
	// The paper's "maximum concurrency" scheme: no picture barriers at
	// all, only slice-level data dependencies. It must never be slower
	// than the improved version and should win when barriers hurt most
	// (many workers, few slices).
	pics := markIntra(uniformPics(26, 15, ms(1), "IPBBPBBPBBPBB"), "IPBBPBBPBBPBB")
	for _, w := range []int{4, 8, 14, 20} {
		improved := SimulateSlices(pics, w, true)
		maxc := SimulateSlicesMax(pics, w, 1)
		if maxc.Makespan > improved.Makespan {
			t.Fatalf("%d workers: max-concurrency (%v) slower than improved (%v)",
				w, maxc.Makespan, improved.Makespan)
		}
	}
	improved := SimulateSlices(pics, 20, true)
	maxc := SimulateSlicesMax(pics, 20, 1)
	if float64(improved.Makespan)/float64(maxc.Makespan) < 1.05 {
		t.Fatalf("at 20 workers max-concurrency (%v) should clearly beat improved (%v)",
			maxc.Makespan, improved.Makespan)
	}
}

func TestMaxConcurrencyWorkConserved(t *testing.T) {
	pics := markIntra(uniformPics(13, 8, ms(2), "IPBB"), "IPBB")
	base := SimulateSlices(pics, 1, true)
	var total time.Duration
	for _, b := range base.Busy {
		total += b
	}
	for _, w := range []int{1, 3, 9} {
		r := SimulateSlicesMax(pics, w, 1)
		var sum time.Duration
		for _, b := range r.Busy {
			sum += b
		}
		if sum != total {
			t.Fatalf("%d workers: busy sum %v, want %v", w, sum, total)
		}
		if r.Makespan > total {
			t.Fatalf("%d workers: makespan %v exceeds serial time %v", w, r.Makespan, total)
		}
	}
}

func TestMaxConcurrencyRespectsDependencies(t *testing.T) {
	// Two pictures: I then P, one slice each, one worker's worth of cost.
	// P's slice depends on I's slice, so even with many workers the
	// makespan is the serial sum.
	pics := []SimPicture{
		{Ref: true, Intra: true, DisplayIdx: 0, SliceCosts: []time.Duration{ms(5)}},
		{Ref: true, DisplayIdx: 1, SliceCosts: []time.Duration{ms(5)}},
	}
	r := SimulateSlicesMax(pics, 8, 1)
	if r.Makespan != ms(10) {
		t.Fatalf("makespan %v, want 10ms (dependency must serialize)", r.Makespan)
	}
	// With an unrelated I instead, they run in parallel.
	pics[1].Intra = true
	r = SimulateSlicesMax(pics, 8, 1)
	if r.Makespan != ms(5) {
		t.Fatalf("makespan %v, want 5ms (independent pictures)", r.Makespan)
	}
}

func TestMaxConcurrencyVRange(t *testing.T) {
	// Wider vertical motion reach means more dependencies, never a
	// faster schedule.
	pics := markIntra(uniformPics(26, 15, ms(1), "IPBBPBBPBBPBB"), "IPBBPBBPBBPBB")
	narrow := SimulateSlicesMax(pics, 14, 1)
	wide := SimulateSlicesMax(pics, 14, 4)
	if wide.Makespan < narrow.Makespan {
		t.Fatalf("wider vrange produced a faster schedule: %v < %v", wide.Makespan, narrow.Makespan)
	}
}

func TestDSMQueuesBeatNaive(t *testing.T) {
	// The §7.2 remedy: per-cluster queues with round-robin GOP placement
	// and stealing must beat the no-locality cost model, because most
	// tasks run on their home cluster.
	tasks := uniformGOPs(64, 13, ms(10))
	cfg := DSMConfig{ClusterSize: 4, RemoteFactor: 0.5}
	for _, w := range []int{8, 16, 32} {
		naive := SimulateGOPDSM(tasks, w, cfg, 1.0)
		smart := SimulateGOPDSMQueues(tasks, w, cfg)
		if smart.Makespan >= naive.Makespan {
			t.Fatalf("%d workers: local queues (%v) not faster than naive (%v)",
				w, smart.Makespan, naive.Makespan)
		}
	}
}

func TestDSMQueuesStealingKeepsWorkersBusy(t *testing.T) {
	// Unbalanced placement: all the work lands on cluster 0; stealing
	// must still use every worker.
	tasks := uniformGOPs(32, 13, ms(10))
	cfg := DSMConfig{ClusterSize: 4, RemoteFactor: 0.5}
	r := SimulateGOPDSMQueues(tasks, 8, cfg)
	for wi, n := range r.Tasks {
		if n == 0 {
			t.Fatalf("worker %d got no tasks — stealing broken", wi)
		}
	}
	// Single cluster: no remote penalty, identical to plain simulation.
	plain := SimulateGOP(tasks, 4)
	local := SimulateGOPDSMQueues(tasks, 4, cfg)
	if local.Makespan != plain.Makespan {
		t.Fatalf("one cluster should match SMP: %v vs %v", local.Makespan, plain.Makespan)
	}
}

// TestMaxConcurrencyPerPictureWindow pins vrange 0: each picture's own
// Window is its reach, and a picture without one waits for its whole
// references — still no slower than the improved version's barrier, which
// also holds pictures back that read nothing of the barrier picture.
func TestMaxConcurrencyPerPictureWindow(t *testing.T) {
	pics := markIntra(uniformPics(26, 15, ms(1), "IPBBPBBPBBPBB"), "IPBBPBBPBBPBB")
	for _, w := range []int{2, 8, 20} {
		whole := SimulateSlicesMax(pics, w, 0)
		if improved := SimulateSlices(pics, w, true); whole.Makespan > improved.Makespan {
			t.Fatalf("%d workers: whole-picture dependencies (%v) slower than the I/P barrier (%v)",
				w, whole.Makespan, improved.Makespan)
		}
		windowed := append([]SimPicture(nil), pics...)
		for i := range windowed {
			windowed[i].Window = 2
		}
		if got, want := SimulateSlicesMax(windowed, w, 0), SimulateSlicesMax(pics, w, 2); got.Makespan != want.Makespan {
			t.Fatalf("%d workers: Window 2 replayed as %v, vrange 2 as %v", w, got.Makespan, want.Makespan)
		}
		if improved := SimulateSlices(windowed, w, true); improved.Makespan != SimulateSlices(pics, w, true).Makespan {
			t.Fatalf("%d workers: SimulateSlices must not look at Window", w)
		}
	}
}
