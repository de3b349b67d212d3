package core

import "sync"

// workerGate parks workers above the online tuner's active-worker
// limit. Workers are spawned at the auto policy's chosen count; when
// the tuner lowers the limit, the highest-indexed workers block at the
// gate instead of contending for tasks — the streaming equivalent of
// shrinking the pool, without tearing goroutines down. Raising the
// limit (or closing the gate at end of stream) wakes them. A nil gate
// is open.
type workerGate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	limit  int
	closed bool
	// park, when non-nil, is told that worker wi is about to sleep at the
	// gate (the slice queue must not count it as holding a task).
	park func(wi int)
}

func newWorkerGate(limit int) *workerGate {
	g := &workerGate{limit: limit}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// enter blocks while worker wi is outside the active limit. Parked
// time is deliberately not reported anywhere: a parked worker is idle
// by decision, and counting it as waiting would feed the tuner its own
// output.
func (g *workerGate) enter(wi int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	for !g.closed && wi >= g.limit {
		if g.park != nil {
			g.park(wi)
		}
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// setLimit publishes a new active-worker limit, waking parked workers
// that fall inside it.
func (g *workerGate) setLimit(n int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.limit = n
	g.cond.Broadcast()
	g.mu.Unlock()
}

// close opens the gate permanently so every worker can drain the queue
// and exit. Call before joining the workers.
func (g *workerGate) close() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
}
