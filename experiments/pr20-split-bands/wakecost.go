//go:build ignore

// wakecost measures what one sleep in sliceQueue.take costs on this host:
// how long after the waker's Broadcast (or generation bump) the waiting
// goroutine runs again, while the waker stays on its processor without
// yielding — which is what a slice worker does after finish/completePic: it
// goes straight on with its next task. Two waits:
// "park" sleeps in sync.Cond.Wait, "poll" watches an atomic counter with
// runtime.Gosched() between looks (the rule sliceQueue.take now applies
// while a peer holds a task). Standard library only.
//
//	go run experiments/pr20-split-bands/wakecost.go [-n 2000] [-task 100us] [-gap 150us]
//
// -gap is how long the waiter has been waiting before each wake-up (a P
// whose thread has gone to sleep in the meantime is the slow case); -task how
// long the waker computes between rounds.
package main

import (
	"flag"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

func main() {
	n := flag.Int("n", 2000, "wake-ups per variant")
	task := flag.Duration("task", 100*time.Microsecond, "waker's work after each wake-up")
	gap := flag.Duration("gap", 150*time.Microsecond, "time the waiter waits before each wake-up")
	flag.Parse()
	fmt.Printf("GOMAXPROCS %d, NumCPU %d, %d wake-ups, waker busy %v after each, waiter waits %v before each\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), *n, *task, *gap)
	for _, poll := range []bool{false, true} {
		var mu sync.Mutex
		cond := sync.NewCond(&mu)
		var gen, ack atomic.Uint64
		done := make(chan struct{})
		go func() { // the waiter
			defer close(done)
			for seen := uint64(0); seen < uint64(*n); seen++ {
				if poll {
					for gen.Load() == seen {
						runtime.Gosched()
					}
				} else {
					mu.Lock()
					for gen.Load() == seen {
						cond.Wait()
					}
					mu.Unlock()
				}
				ack.Store(seen + 1)
			}
		}()
		// The waker. Both stamps of a latency are read on its own thread (the
		// two vCPUs' clocks differ by tens of microseconds on this host), and
		// it never yields: it watches for the waiter's acknowledgement the way
		// it would run its next task.
		lat := make([]time.Duration, 0, *n)
		for i := 1; i <= *n; i++ {
			spin(*gap)
			mu.Lock()
			t1 := time.Now()
			gen.Add(1)
			cond.Broadcast()
			mu.Unlock()
			for ack.Load() != uint64(i) {
			}
			lat = append(lat, time.Since(t1))
			spin(*task)
		}
		<-done
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		name := "park (Cond.Wait)"
		if poll {
			name = "poll (Gosched)  "
		}
		fmt.Printf("  %s  p10 %8v  p50 %8v  p90 %8v  p99 %8v  max %8v\n", name,
			lat[len(lat)/10], lat[len(lat)/2], lat[len(lat)*9/10], lat[len(lat)*99/100], lat[len(lat)-1])
	}
}
