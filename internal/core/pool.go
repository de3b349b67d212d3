package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpeg2par/internal/obs"
)

// Job is one queued unit of pool work as its driver stamped it. A task
// queued as it is is its own job.
type Job interface{ Task() *SessionTask }

// Task returns t.
func (t *SessionTask) Task() *SessionTask { return t }

// Order is what differs between the pool's drivers, called under their
// lock: Next takes the job to run now off the queue (Pool.Queue(-1)), nil
// when none may; Drained reports that nothing is queued and nothing more
// will be; Done is the epilogue of a job whose task Run returned err from.
type Order interface {
	Next() Job
	Drained() bool
	Done(j Job, err error)
}

// Pool is the loop every decode worker runs, whoever queues the tasks: the
// service over all its streams' sessions in its fair or deadline order, and
// a single-stream decode over its one session in feed order (DecodeUnits).
// A worker runs the next job's task through Session.Run; with nothing to
// pick it helps a running task that took helpers (the offer rule below), or
// sleeps, and once the order is drained and nothing is left to help it
// exits. A slice-mode session's stream queue is a task no worker runs and
// every worker helps. Each worker lends its one scratch to every task.
//
// The offer rule: a task takes helpers only if a worker is idle and nothing
// is queued when it starts — and, once the order is drained (a decode's
// tail), whenever a worker is idle. A helper leaves after its current unit
// (a row group) once a job is queued, or once the helped task has no unit
// left to hand out. Neither side waits on the pool's lock meanwhile: the
// helper reads the atomic queue count, the task hands out its pictures'
// units through its own slice queue, where a helper with nothing to take
// waits, and Queue wakes that wait (SessionTask.Wake) the moment a job is
// queued. The helper never displays a picture: the task's own worker does.
// A loaded pool never pays for help; a half-loaded one stops leaving a
// worker asleep while a group decodes.
type Pool struct {
	mu    *sync.Mutex // the driver's: guards its Order and what follows
	cond  *sync.Cond
	order Order
	obs   *obs.Tracer

	workers int
	busy    int            // workers in Session.Run
	run     []*SessionTask // running tasks and stream queues, oldest first
	queued  atomic.Int64   // jobs queued and not yet picked
	assists atomic.Int64   // tasks a helper decoded units of
	ws      []WorkerStats  // each worker's, once it has exited
	wg      sync.WaitGroup
}

// NewPool returns a pool whose workers pick under order, holding mu.
func NewPool(mu *sync.Mutex, order Order, tr *obs.Tracer) *Pool {
	return &Pool{mu: mu, cond: sync.NewCond(mu), order: order, obs: tr}
}

// Start starts n workers, labelled mode in profiles and traces.
func (p *Pool) Start(mode string, n int) {
	p.workers, p.ws = n, make([]WorkerStats, n)
	p.obs.SetMeta(mode, n)
	for wi := 0; wi < n; wi++ {
		p.wg.Add(1)
		go obs.Do(mode, wi, func() { p.work(wi) })
	}
}

// Queue counts n jobs the order has queued (taken or withdrawn, when
// negative), and wakes the workers and the helpers for a new one. Call
// with the lock held.
func (p *Pool) Queue(n int) {
	p.queued.Add(int64(n))
	if n > 0 {
		for _, t := range p.run {
			t.Wake()
		}
		p.cond.Broadcast()
	}
}

// Queued returns how many jobs are queued and not yet picked.
func (p *Pool) Queued() int { return int(p.queued.Load()) }

// Assists returns how many tasks an idle worker has decoded units of.
func (p *Pool) Assists() int64 { return p.assists.Load() }

// Wake wakes the sleeping workers to look at the order again.
func (p *Pool) Wake() { p.cond.Broadcast() }

// Wait waits for the workers to exit and returns their time breakdowns.
func (p *Pool) Wait() []WorkerStats {
	p.wg.Wait()
	return p.ws
}

func (p *Pool) work(wi int) {
	defer p.wg.Done()
	var scr Scratch
	queued := func() bool { return p.queued.Load() > 0 }
	p.mu.Lock()
	defer p.mu.Unlock()
	for left := false; ; {
		j := p.order.Next()
		if j == nil {
			// Help the oldest task that took helpers, or at the tail any —
			// none right after leaving one for queued work it cannot run
			// (a paused stream's): that helper sleeps instead.
			var h *SessionTask
			for _, t := range p.run {
				if !left && (t.open || p.order.Drained()) {
					h = t
					break
				}
			}
			switch {
			case h != nil:
				p.mu.Unlock()
				units, ended := h.Help(wi, &scr, queued)
				p.mu.Lock()
				if units > 0 && !h.helped {
					h.helped = true
					p.assists.Add(1)
				}
				if ended {
					p.drop(h)
				}
				left = !ended
			case p.order.Drained():
				p.ws[wi] = scr.ws
				return
			default:
				t0 := time.Now()
				p.cond.Wait()
				d := time.Since(t0)
				scr.ws.Wait += d
				p.obs.Record(obs.KindWait, wi, t0, d, -1, -1, -1)
				left = false
			}
			continue
		}
		left = false
		t := j.Task()
		p.run = append(p.run, t)
		if !t.q.solo { // a stream queue: every worker helps it, none runs it
			t.open = true
			p.cond.Broadcast()
			continue
		}
		p.busy++
		if t.open = p.busy < p.workers && !queued(); t.open {
			p.cond.Broadcast()
		}
		p.mu.Unlock()
		t1 := time.Now()
		err := t.s.Run(t, wi, &scr)
		scr.ws.Busy += time.Since(t1)
		scr.ws.Tasks++
		p.mu.Lock()
		p.drop(t)
		p.busy--
		p.order.Done(j, err)
	}
}

// drop withdraws a task that has ended from the helpers' offer.
func (p *Pool) drop(t *SessionTask) {
	if i := slices.Index(p.run, t); i >= 0 {
		p.run = slices.Delete(p.run, i, i+1)
	}
}
