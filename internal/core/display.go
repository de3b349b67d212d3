package core

import (
	"fmt"
	"sync"
	"time"

	"mpeg2par/internal/frame"
	"mpeg2par/internal/obs"
)

// displayProc is the display process: decoded pictures arrive in
// completion order and wait in the reorder buffer until their display
// turn, then go to the sink and back to the frame pool. (Dithering is
// omitted, as in the paper's measurements.)
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
	obs       *obs.Tracer
	lane      int // obs lane of delivery events (a stream lane in the service)
	displayed int
	err       error
}

func newDisplay(pool *frame.Pool, sink func(*frame.Frame), tr *obs.Tracer) *displayProc {
	return &displayProc{pending: make(map[int]*frame.Frame), pool: pool, sink: sink, obs: tr, lane: obs.LaneDisplay}
}

// push hands one decoded picture (with its absolute display index) to the
// display process and drains everything that is now in order. The drained
// frames go back to the pool after d.mu is dropped: a slice executor's
// pool wipes a frame on Put (frame.ScrubOnPut), and that must not hold up
// the other workers' pushes.
func (d *displayProc) push(f *frame.Frame, idx int) {
	var buf [4]*frame.Frame
	for _, g := range d.deliver(f, idx, buf[:0]) {
		if g.Release() {
			d.pool.Put(g)
		}
	}
}

// deliver is push under d.mu: it appends the frames it displayed to shown.
func (d *displayProc) deliver(f *frame.Frame, idx int, shown []*frame.Frame) []*frame.Frame {
	d.mu.Lock()
	defer d.mu.Unlock()
	if idx < d.next || d.pending[idx] != nil {
		if d.err == nil {
			d.err = fmt.Errorf("core: duplicate display index %d", idx)
		}
		return shown
	}
	d.pending[idx] = f
	for {
		g, ok := d.pending[d.next]
		if !ok {
			return shown
		}
		delete(d.pending, d.next)
		g.DisplayIndex = d.next
		if d.sink != nil {
			d.sink(g)
		}
		if d.obs != nil {
			d.obs.Record(obs.KindDisplay, d.lane, time.Now(), 0, -1, d.next, -1)
		}
		shown = append(shown, g)
		d.displayed++
		d.next++
	}
}

// count returns the number of pictures displayed so far (the streaming
// pipeline's scan-lead gauge samples it).
func (d *displayProc) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.displayed
}

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
		return d.displayed, d.err
	}
	if len(d.pending) != 0 {
		return d.displayed, fmt.Errorf("core: %d pictures never displayed (gap at %d)", len(d.pending), d.next)
	}
	return d.displayed, nil
}

// firstErr latches the first error reported by any process.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (e *firstErr) set(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *firstErr) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
