//go:build unix

package core

import (
	"syscall"
	"testing"
	"time"
)

// processCPU returns the user and system CPU time this process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestGatedPoolBurnsNoCPU: a pool whose tuner has gated a worker, with
// nothing queued, waits for the scan process asleep. (Were the gated
// worker still counted as holding a task, the other would poll for as long
// as the source stalls: one whole CPU.)
func TestGatedPoolBurnsNoCPU(t *testing.T) {
	release := gatedPool(t)
	const hold = 200 * time.Millisecond
	cpu0 := processCPU(t)
	time.Sleep(hold)
	cpu := processCPU(t) - cpu0
	release()
	if cpu > hold/4 {
		t.Fatalf("a gated pool with an empty queue used %v of CPU in %v", cpu, hold)
	}
}
