package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpeg2par/internal/decoder"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/obs"
)

// helpDesk is where a running SessionTask shares the picture it is decoding
// with idle workers of its pool. The worker running the task (the owner)
// opens each picture of more than one task; owner and helpers claim its
// tasks — row groups, in task order — through the picture's claim cursor,
// each decoding with its own scratch and recording what it found here. The
// owner alone closes the picture, waits out the claims still running, then
// conceals, tallies and hands it to display, so pixels, counts and the
// FailFast error (the lowest failing task's) are those of the owner
// decoding alone.
type helpDesk struct {
	pic    atomic.Pointer[picState] // the open picture, nil between pictures
	active atomic.Int32             // helpers inside a claim
	ended  atomic.Bool              // the task's Run has returned

	mu    sync.Mutex          // guards the fields below
	bell  chan struct{}       // closed when a picture opens or the task ends; nil while no helper waits
	cov   *coverage           // the owner's
	work  []decoder.WorkStats // per task of the open picture, in the owner's scratch
	es    ErrorStats
	err   error // FailFast: the lowest failing task's error
	errAt int
}

// share is the owner's side: it decodes p's tasks with scr, offering them
// to helpers meanwhile when there are several, and returns what decoding
// alone counts: every task's work, or under FailFast that of the tasks up
// to the lowest failing one (a helper's claim past it counts for nothing).
// The coverage is in scr.cov. No helper holds a claim when it starts: the
// previous picture's share waited them out.
func (d *helpDesk) share(seq *mpeg2.SequenceHeader, p *picState, wi int, opt Options, scr *sliceScratch) (work decoder.WorkStats, es ErrorStats, err error) {
	d.open(p, scr)
	for d.runClaim(seq, p, wi, opt, scr) {
	}
	d.pic.Store(nil) // and wait out the claims still running, a task each at most
	for d.active.Load() != 0 {
		runtime.Gosched()
	}
	n := p.nTasks
	if d.err != nil {
		n = d.errAt + 1
	}
	for _, w := range d.work[:n] {
		work.Add(w)
	}
	return work, d.es, d.err
}

// open readies d for p with the owner's scratch, and offers p to helpers
// if it has more than one task.
func (d *helpDesk) open(p *picState, scr *sliceScratch) {
	scr.taskWork = slices.Grow(scr.taskWork[:0], p.nTasks)[:p.nTasks]
	clear(scr.taskWork)
	d.cov, d.work, d.es, d.err = &scr.cov, scr.taskWork, ErrorStats{}, nil
	p.claim.Store(0)
	if p.nTasks > 1 {
		d.pic.Store(p)
		d.ring()
	}
}

// runClaim claims p's next task and decodes it with scr, recording its
// coverage, tallies and any error in d; it reports false once no task is
// left. A failed task (FailFast only) ends the claiming: every task before
// it has been claimed, so the lowest failing one is among those that ran.
// Work is kept per task, ErrorStats summed: they grow only under a
// concealing policy, where every task runs.
func (d *helpDesk) runClaim(seq *mpeg2.SequenceHeader, p *picState, wi int, opt Options, scr *sliceScratch) bool {
	ti := int(p.claim.Add(1)) - 1
	if ti >= p.nTasks {
		return false
	}
	var work decoder.WorkStats
	var es ErrorStats
	scr.taskAddrs = scr.taskAddrs[:0]
	// No SplitStats: the plans decodePlanPic runs hold no split segments.
	err := runPlanSliceTask(seq, p, ti, wi, opt, scr, &work, &es, nil, &scr.taskAddrs)
	d.mu.Lock()
	for _, a := range scr.taskAddrs {
		d.cov.add(a)
	}
	d.work[ti] = work
	d.es.Add(es)
	if err != nil {
		if d.err == nil || ti < d.errAt {
			d.err, d.errAt = err, ti
		}
		p.claim.Store(int32(p.nTasks))
	}
	d.mu.Unlock()
	return true
}

// end marks the task's Run as returned and wakes the waiting helpers.
func (d *helpDesk) end() {
	d.ended.Store(true)
	d.ring()
}

// ring wakes the helpers waiting in wait.
func (d *helpDesk) ring() {
	d.mu.Lock()
	if d.bell != nil {
		close(d.bell)
		d.bell = nil
	}
	d.mu.Unlock()
}

// wait blocks until a picture other than spent opens, the task ends or
// wake is closed.
func (d *helpDesk) wait(spent *picState, wake <-chan struct{}) {
	d.mu.Lock()
	if d.bell == nil {
		d.bell = make(chan struct{})
	}
	bell := d.bell
	d.mu.Unlock()
	// A picture opened or an end marked before the bell was taken shows
	// here; one after it rings the bell.
	if p := d.pic.Load(); p != nil && p != spent || d.ended.Load() {
		return
	}
	select {
	case <-bell:
	case <-wake:
	}
}

// helpPoll is how long a helper polls for the owner's next picture before
// it blocks in wait: longer than closing one picture and opening the next
// takes, so only a long gap (the owner in its frame consumer) parks it.
const helpPoll = 100 * time.Microsecond

// Help lends worker wi, with its scratch, to t while another worker runs
// it: it decodes tasks of the pictures t opens until Run has returned or
// leave — asked before every task — reports true. wake must be closed
// whenever leave may have turned true: a helper waiting for a picture
// blocks, and only wake, a picture opening or Run returning ends the wait.
// Help returns how many tasks it decoded and whether t has ended. Each
// picture helped is recorded as an obs.KindTask span on lane wi.
func (t *SessionTask) Help(wi int, scr *Scratch, leave func() bool, wake <-chan struct{}) (units int, ended bool) {
	d, s := &t.desk, t.s
	opt := s.opt
	opt.Resilience = t.policy
	var cur, spent *picState // the picture being helped; the last one found exhausted
	var from, to, idle time.Time
	span := func() {
		if cur != nil {
			opt.Obs.Record(obs.KindTask, wi, from, to.Sub(from), t.g, cur.displayIdx, -1)
		}
	}
	defer span()
	for !leave() {
		if ended = d.ended.Load(); ended {
			return units, true
		}
		p := d.pic.Load()
		if p != nil && p != spent {
			d.active.Add(1)
			t0 := time.Now()
			ok := d.runClaim(&s.seq, p, wi, opt, &scr.s)
			d.active.Add(-1)
			if !ok {
				spent = p
				continue
			}
			if p != cur {
				span()
				cur, from = p, t0
			}
			to, idle = time.Now(), time.Time{}
			units++
			continue
		}
		switch {
		case idle.IsZero():
			idle = time.Now()
		case time.Since(idle) < helpPoll:
			runtime.Gosched()
		default:
			d.wait(spent, wake)
		}
	}
	return units, false
}
