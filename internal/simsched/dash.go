package simsched

import "time"

// DSMConfig models a cache-coherent machine with physically distributed
// memory (the paper's §7.2 Stanford DASH experiments): processors come in
// clusters sharing a local memory; references that miss to a remote
// cluster pay a latency multiplier.
//
// The paper observed that with no attention to data placement, remote-miss
// latency — not synchronization — limits speedup on DASH. With data
// placed round-robin and tasks assigned dynamically, the fraction of a
// task's misses that are remote grows as 1 − 1/C for C clusters, which is
// how this model inflates task costs.
type DSMConfig struct {
	ClusterSize int // processors per cluster (DASH: 4)
	// RemoteFactor is the fractional slowdown of a task whose misses are
	// all remote (e.g. 0.6 means a fully-remote task runs 1.6× longer).
	RemoteFactor float64
}

// Clusters returns the number of clusters hosting P workers.
func (c DSMConfig) Clusters(workers int) int {
	if c.ClusterSize <= 0 {
		return 1
	}
	n := (workers + c.ClusterSize - 1) / c.ClusterSize
	if n < 1 {
		n = 1
	}
	return n
}

// CostMultiplier returns the task-cost inflation for P workers.
func (c DSMConfig) CostMultiplier(workers int) float64 {
	cl := c.Clusters(workers)
	return 1 + c.RemoteFactor*(1-1/float64(cl))
}

// SimulateSlicesDSM runs the improved slice decoder on the DSM model:
// identical queue semantics, with every slice cost inflated by the
// remote-miss multiplier for this machine size.
func SimulateSlicesDSM(pics []SimPicture, workers int, improved bool, cfg DSMConfig) Result {
	mult := cfg.CostMultiplier(workers)
	inflated := make([]SimPicture, len(pics))
	for i, p := range pics {
		q := p
		q.SliceCosts = make([]time.Duration, len(p.SliceCosts))
		for j, c := range p.SliceCosts {
			q.SliceCosts[j] = time.Duration(float64(c) * mult)
		}
		inflated[i] = q
	}
	return SimulateSlices(inflated, workers, improved)
}

// SimulateGOPDSM runs the GOP decoder on the DSM model. GOP tasks suffer
// less remote traffic than slices (each worker's references stay in its
// own GOP), so the multiplier applies only to the sharing-prone fraction
// of the work given by shareFrac.
func SimulateGOPDSM(tasks []GOPTask, workers int, cfg DSMConfig, shareFrac float64) Result {
	mult := 1 + (cfg.CostMultiplier(workers)-1)*shareFrac
	inflated := make([]GOPTask, len(tasks))
	for i, t := range tasks {
		t.Cost = time.Duration(float64(t.Cost) * mult)
		inflated[i] = t
	}
	return SimulateGOP(inflated, workers)
}

// SimulateGOPDSMQueues runs the GOP decoder on the DSM model with the
// paper's §7.2 remedy: a task queue per cluster, GOP data loaded
// round-robin into cluster memories, each worker preferring tasks whose
// data is local, and stealing remote tasks (paying the remote-miss
// multiplier on the whole task) only when its own queue runs dry.
func SimulateGOPDSMQueues(tasks []GOPTask, workers int, cfg DSMConfig) Result {
	clusters := cfg.Clusters(workers)
	if cfg.ClusterSize <= 0 {
		clusters = 1
	}
	// Per-cluster FIFO of task indices, round-robin placement.
	queues := make([][]int, clusters)
	for i := range tasks {
		c := i % clusters
		queues[c] = append(queues[c], i)
	}
	remoteMult := 1 + cfg.RemoteFactor

	ws := newWorkers(workers)
	var makespan time.Duration
	for {
		// Earliest-free worker takes its next task.
		wi := 0
		for i := 1; i < workers; i++ {
			if ws.free[i] < ws.free[wi] {
				wi = i
			}
		}
		home := wi / max(cfg.ClusterSize, 1)
		if home >= clusters {
			home = clusters - 1
		}
		src := -1
		if len(queues[home]) > 0 {
			src = home
		} else {
			// Steal from the longest remote queue.
			for c := range queues {
				if len(queues[c]) > 0 && (src < 0 || len(queues[c]) > len(queues[src])) {
					src = c
				}
			}
		}
		if src < 0 {
			break // all queues empty
		}
		ti := queues[src][0]
		queues[src] = queues[src][1:]
		cost := tasks[ti].Cost
		if src != home {
			cost = time.Duration(float64(cost) * remoteMult)
		}
		start := ws.free[wi]
		if tasks[ti].Avail > start {
			start = tasks[ti].Avail
		}
		end := start + cost
		ws.free[wi] = end
		ws.busy[wi] += cost
		ws.n[wi]++
		if end > makespan {
			makespan = end
		}
	}
	return ws.result(makespan)
}
