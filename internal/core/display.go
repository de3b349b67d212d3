package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpeg2par/internal/frame"
	"mpeg2par/internal/obs"
)

// displayProc is the display process: decoded pictures arrive in
// completion order and wait in the reorder buffer until their display
// turn, then go to the sink and back to the frame pool as they are: the
// next picture to take a frame overwrites every pixel of it. (Dithering
// is omitted, as in the paper's measurements.)
//
// The reorder buffer drains synchronously inside push: on a single-CPU
// host a dedicated goroutine would starve during decode bursts and
// overstate the queue depth, while the paper's dedicated display
// processor drains continuously. The memory behaviour — out-of-order GOP
// completions pile up until the in-order GOP finishes — is preserved
// exactly.
type displayProc struct {
	mu        sync.Mutex
	pending   map[int]*frame.Frame
	next      int
	pool      *frame.Pool
	sink      func(*frame.Frame)
	delivered func(idx int) // told of each delivery, in display order (Session.delivered)
	obs       *obs.Tracer
	lane      int             // obs lane of delivery events (a stream lane in the service)
	ctx       context.Context // once it is cancelled, nothing more is delivered
	displayed atomic.Int64    // read without mu, so a slow sink never holds up its readers
	err       error
}

func newDisplay(pool *frame.Pool, sink func(*frame.Frame), delivered func(int), tr *obs.Tracer) *displayProc {
	return &displayProc{pending: make(map[int]*frame.Frame), pool: pool, sink: sink, delivered: delivered, obs: tr, lane: obs.LaneDisplay}
}

// push hands one decoded picture (with its absolute display index) to the
// display process, which displays everything now in order and returns it
// to the pool — unless the session's context has been cancelled: what is
// left then waits for the teardown (abandon).
func (d *displayProc) push(f *frame.Frame, idx int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if idx < d.next || d.pending[idx] != nil {
		if d.err == nil {
			d.err = fmt.Errorf("core: duplicate display index %d", idx)
		}
		return
	}
	d.pending[idx] = f
	for {
		g, ok := d.pending[d.next]
		if !ok || d.ctx.Err() != nil {
			return
		}
		delete(d.pending, d.next)
		g.DisplayIndex = d.next
		if d.sink != nil {
			d.sink(g)
		}
		if d.obs != nil {
			d.obs.Record(obs.KindDisplay, d.lane, time.Now(), 0, -1, d.next, -1)
		}
		if g.Release() {
			d.pool.Put(g)
		}
		d.displayed.Add(1)
		d.delivered(d.next)
		d.next++
	}
}

// count returns the number of pictures displayed so far (the streaming
// pipeline's scan-lead gauge samples it).
func (d *displayProc) count() int { return int(d.displayed.Load()) }

// abandon reclaims the undisplayed pictures still waiting in the reorder
// buffer (cancelled-pipeline teardown, after every worker has stopped; the
// pictures' own records may have left the plan by now).
func (d *displayProc) abandon() {
	d.mu.Lock()
	for _, f := range d.pending {
		d.pool.Reclaim(f)
	}
	d.pending = make(map[int]*frame.Frame)
	d.mu.Unlock()
}

// finish checks that every picture was displayed.
func (d *displayProc) finish() (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.count(), d.err
	}
	if len(d.pending) != 0 {
		return d.count(), fmt.Errorf("core: %d pictures never displayed (gap at %d)", len(d.pending), d.next)
	}
	return d.count(), nil
}

// firstErr latches the first error reported by any process, and closes
// done (made with the Session) as it does: a select can wait on the failure.
type firstErr struct {
	mu   sync.Mutex
	err  error
	done chan struct{}
}

func (e *firstErr) set(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
		close(e.done)
	}
	e.mu.Unlock()
}

func (e *firstErr) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
