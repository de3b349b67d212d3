package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	rtrace "runtime/trace"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/obs"
)

// picState is one picture in the 2-D task queue (first level: pictures in
// decode order; second level: that picture's slices).
type picState struct {
	rng *PictureRange
	// data holds the bytes rng's offsets index into: the unit's (its
	// group's bytes, or the whole stream for a decode of a scanned stream).
	data       []byte
	hdr        mpeg2.PictureHeader
	params     mpeg2.PictureParams
	displayIdx int

	// The reference pictures, nil if none. They are pointers, not indices
	// into a list every reader would have to hold a consistent snapshot
	// of; the plan never references across a group, so the chain from any
	// picture ends inside its own group and retires with it.
	fwd, bwd *picState
	isRef    bool
	deps     int32 // number of later pictures that reference this one

	frame     *frame.Frame
	nextSlice int // next task to hand out
	// order, when non-nil, maps handout position to task index — the
	// scheduler's packing of this picture's tasks (packOrder). Nil means
	// stream order. Tasks of one picture touch disjoint pixels
	// (distinct macroblock rows, or row groups), so any order is safe.
	order     []int
	nTasks    int // tasks this picture issues (row groups, segments, or one substitute)
	remaining int // tasks not yet completed
	// tasks, when non-nil, is the expanded task table of a picture with
	// at least one split slice: queue indices resolve through it to an
	// underlying row group or to one segment of a split slice.
	tasks []segTask
	// bounds holds the per-slice inclusive macroblock address bound
	// (sliceSpanBounds): the span a slice may legally cover before the
	// next slice's first row, which keeps concurrent slices disjoint.
	bounds []int
	// minRow is the lowest macroblock row any slice claims (taskRows).
	minRow int
	// rowwise is set when every task owns its macroblock rows outright —
	// no two slices share a row, and a split slice hands the queue only
	// the coverage of segments whose chain has verified — so a row is
	// final the moment finished tasks have covered all of it, and readers
	// may be let at it before the picture completes. Other pictures
	// publish as a whole, at completePic.
	rowwise bool
	cov     coverage // macroblocks actually reconstructed
	// rowCov counts the covered macroblocks of each row (it shares cov's
	// allocation): row r of a rowwise picture is published at MBWidth.
	rowCov   []uint64
	complete bool
	// shipped is set once the completed picture has been handed to the
	// display process; the queue's depth window advances on it.
	shipped bool

	// Plan fields (see plan.go).
	gop       int       // group index, in stream order
	typeKnown bool      // the coding type survived the scan
	headerOK  bool      // the full picture header parsed
	fate      picFate   // decode from the bitstream or substitute
	subFrom   *picState // substitution source, nil for grey
	// shedBy, when non-zero, records that this picture's substitution
	// was load shedding (deliberate degradation), not damage.
	shedBy  ShedLevel
	holds   []*picState  // pictures whose frames this one reads (released on completion)
	holdBuf [2]*picState // holds' storage: two references, or one substitution source
	groups  [][]int      // slice indices per queue task (buildRowGroups)
	damaged int          // slices whose parse/reconstruction failed
	resyncs int          // damaged slices recovered by a later startcode

	// prof, with Options.Profile in a slice mode, holds per task where its
	// costs go: windows of the picture's PicProfile.SliceCosts.
	prof [][]time.Duration
}

// sliceQueue is the shared 2-D task queue plus the synchronization the
// two slice variants differ in. The simple variant puts a barrier after
// every picture. The improved variant synchronises on the data dependency
// itself: a task is runnable once the reference rows inside its motion
// window (refRowWindow) have been published, so a worker that reaches the
// end of a reference picture finds most of the next picture runnable
// instead of going to sleep. In a slice-grain decode the scan process
// appends pictures as it discovers them and closes the queue at end of
// stream; every SessionTask holds one too, over its group (solo).
type sliceQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	// pics is the queue's own window of the decode order: pictures leave
	// its head once handed to the display process (shipPic), so however
	// long the stream it holds the depth window and what waits behind it.
	pics     []*picState
	pool     *frame.Pool
	issueIdx int // first picture whose slices are not fully handed out
	improved bool
	// depth bounds how far the pipeline may run ahead of the oldest
	// picture not yet handed to the display process. Without it a single
	// straggling slice lets the improved variant buffer an unbounded
	// number of decoded pictures — flow control the paper's fixed-speed
	// processors never needed. The window advances on the hand-off
	// (shipPic), not on completion: a worker descheduled between the two
	// would otherwise let the others run the whole window ahead while
	// every later frame piles up in the reorder buffer behind its one.
	depth  int
	failed bool
	closed bool // no more pictures will be appended

	// workers is the pool size, the number of horizontal bands take steers
	// tasks by (pickTask).
	workers int

	// obs, when non-nil, receives a queue-wait or barrier-wait event for
	// every blocked take (classified by what the worker was blocked on).
	obs *obs.Tracer

	// How a blocked take waits. out[wi] marks worker wi as holding a task:
	// set by the take that handed it one, cleared by its next take (a task's
	// owner: by its last, as what its helpers wait for is its to end). busy
	// counts the marked workers, less those handing a finished picture to
	// the display process. While busy > 0 whatever the taker waits for is
	// at most one band task away, so it polls gen, which every change to
	// the queue bumps; at busy == 0 only the scan process or the frame
	// consumer can end the wait, which has no bound, so it sleeps on cond.
	// Sleeping costs the wake-up: the woken goroutine sits in the waker's
	// run queue until another P steals it, a picture's worth of time at SIF
	// (DESIGN.md, "Slice-queue synchronisation").
	out  []bool
	busy int
	gen  atomic.Uint64

	// solo marks a SessionTask's queue: the simple variant over one group,
	// closed as built, tasks in task order, no band steering; its owner
	// (Session.Run) completes every picture, its helpers none (see take).
	solo bool
	// sum is what the queue's tasks and completions counted, whoever ran
	// them; err, in a task's queue, the lowest failing task's (errAt) of the
	// first picture with one: what the owner decoding alone meets.
	sum   tally
	err   error
	errAt int
	// spare: a completed simple-variant picture's coverage, for the next.
	spare []uint64
}

// tally is what tasks count as they run.
type tally struct {
	work decoder.WorkStats
	es   ErrorStats
	sst  SplitStats
}

// changed announces a change of queue state to the blocked takes, polling
// and sleeping (the caller holds q.mu).
func (q *sliceQueue) changed() {
	q.gen.Add(1)
	q.cond.Broadcast()
}

// hold marks worker wi as holding a task or not (the caller holds q.mu).
// The last worker to let go turns the pollers into sleepers; in a failed
// queue each one tells them, for an owner waits out its helpers' tasks.
func (q *sliceQueue) hold(wi int, on bool) {
	for wi >= len(q.out) {
		q.out = append(q.out, false)
	}
	if q.out[wi] == on {
		return
	}
	q.out[wi] = on
	if on {
		q.busy++
	} else if q.busy--; q.busy == 0 || q.failed {
		q.changed()
	}
}

// append adds pictures to the tail of the queue (the scan process feeding
// tasks as it discovers them).
func (q *sliceQueue) append(ps []*picState) {
	q.mu.Lock()
	q.pics = append(q.pics, ps...)
	q.changed()
	q.mu.Unlock()
}

// close marks the queue complete: workers drain what remains and exit.
func (q *sliceQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.changed()
	q.mu.Unlock()
}

// rowsReady reports whether rows [lo, hi] of reference picture ref may be
// read (the caller holds q.mu, which orders the read after the writes of
// every task whose finish published them).
func rowsReady(ref *picState, lo, hi int) bool {
	if ref.complete {
		return true
	}
	if !ref.rowwise || ref.rowCov == nil {
		return false
	}
	full := uint64(ref.params.MBWidth)
	for r := lo; r <= hi; r++ {
		if ref.rowCov[r] != full {
			return false
		}
	}
	return true
}

// refsComplete reports whether every frame p reads is complete, in which
// case all of p's tasks are runnable.
func refsComplete(p *picState) bool {
	for _, r := range [...]*picState{p.fwd, p.bwd, p.subFrom} {
		if r != nil && !r.complete {
			return false
		}
	}
	return true
}

// ready reports whether task ti of p may run now: in each frame it
// predicts from, every macroblock row inside the vertical reach of the
// picture's f_code around the task's own rows is published. A task
// without rows of its own, and a substitute (which copies its source
// frame), wait for the whole frame.
func ready(p *picState, ti int) bool {
	last := p.params.MBHeight - 1
	if p.subFrom != nil && !rowsReady(p.subFrom, 0, last) {
		return false
	}
	r0, r1, _, spans := taskRows(p, ti)
	for dir, ref := range [...]*picState{p.fwd, p.bwd} {
		if ref == nil {
			continue
		}
		lo, hi := 0, last
		if w := refRowWindow(p.params.FCode[dir][1], !p.params.FramePredFrameDCT); spans && w >= 0 {
			lo, hi = max(r0-w, 0), min(r1+w, last)
		}
		if !rowsReady(ref, lo, hi) {
			return false
		}
	}
	return true
}

// next picks the task worker wi runs next and moves it to the head of its
// picture's handout order, or returns nil when nothing is runnable yet
// (the caller holds q.mu; issueIdx names a picture with tasks left).
func (q *sliceQueue) next(wi int) *picState {
	for i := q.issueIdx; i < len(q.pics); i++ {
		if q.depth > 0 && i >= q.depth && !q.pics[i-q.depth].shipped {
			return nil // pipeline-depth flow control
		}
		p := q.pics[i]
		if !q.improved {
			// Simple version: barrier after every picture; p waits for its frame.
			if i > 0 && !q.pics[i-1].complete || p.frame == nil && p.nextSlice > 0 {
				return nil
			}
			q.pickTask(p, wi, false)
			return p
		}
		// Improved version: any picture inside the depth window may issue
		// a task whose reference rows are published. The common case —
		// every reference complete — skips the per-task check.
		if p.nextSlice < p.nTasks && (p.frame != nil || p.nextSlice == 0) && q.pickTask(p, wi, !refsComplete(p)) {
			return p
		}
	}
	return nil
}

// take blocks until a slice task is available (returning picture and
// task index) or the queue has nothing more for worker wi (ok=false). The
// time spent blocked — polling or asleep, see sliceQueue.busy — is added
// to ws.Wait, and each sleep counted in ws.Parks; wi identifies the taking
// worker for the wait event a blocked take records (a block with tasks
// queued behind the barrier discipline is a barrier wait, a block on an
// empty queue is starvation). A take that never blocks reads no clock and
// records nothing.
//
// In a task's queue (solo) a taker with leave is a helper: it asks leave
// before every task and whenever its wait wakes, and returns once leave
// reports true or no task is left. The taker without one is the owner: take
// also hands it the oldest picture once its tasks have all finished (slice
// -1: complete it), and returns only when every picture has shipped or, the
// queue failed, no helper holds a task.
func (q *sliceQueue) take(wi int, ws *WorkerStats, leave func() bool) (p *picState, slice int, ok bool) {
	var t0 time.Time
	blocked, barrier := false, false
	block := func() {
		if !blocked {
			blocked = true
			t0 = time.Now()
		}
		if q.busy <= 0 {
			ws.Parks++
			q.cond.Wait()
			return
		}
		// Yield between looks, so that the scan goroutine and a preempted
		// peer still run where there are fewer Ps than pollers.
		gen := q.gen.Load()
		q.mu.Unlock()
		for q.gen.Load() == gen {
			runtime.Gosched()
		}
		q.mu.Lock()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	owner := q.solo && leave == nil
	q.hold(wi, owner)
	defer func() {
		if !ok {
			q.hold(wi, false)
		}
		if !blocked {
			return
		}
		wait := time.Since(t0)
		ws.Wait += wait
		kind := obs.KindWait
		if barrier {
			kind = obs.KindBarrier
		}
		q.obs.Record(kind, wi, t0, wait, -1, -1, -1)
	}()
	for {
		if leave != nil {
			// Asked without q.mu; a change meanwhile (a Wake) asks again.
			gen := q.gen.Load()
			q.mu.Unlock()
			quit := leave()
			q.mu.Lock()
			if quit {
				return nil, 0, false
			}
			if q.gen.Load() != gen {
				continue
			}
		}
		switch {
		case q.failed && owner && q.busy > 1:
			block() // helpers still hold tasks
			continue
		case q.failed:
			return nil, 0, false
		case owner && len(q.pics) > 0 && q.pics[0].remaining == 0:
			return q.pics[0], -1, true
		}
		// Skip over fully-issued pictures.
		for q.issueIdx < len(q.pics) && q.pics[q.issueIdx].nextSlice >= q.pics[q.issueIdx].nTasks {
			q.issueIdx++
		}
		if q.issueIdx >= len(q.pics) {
			if q.closed && (!owner || len(q.pics) == 0) {
				return nil, 0, false
			}
			block() // more pictures may still be appended, or tasks finish
			continue
		}
		if p = q.next(wi); p != nil {
			slice = p.handout(p.nextSlice)
			p.nextSlice++
			q.hold(wi, true)
			if p.frame == nil {
				// Lazy allocation keeps live frames to the in-flight
				// pictures plus references — the memory property the
				// slice approach exists for. Get may allocate a frame, or
				// clear one another stream used, so not under q.mu: p
				// hands out no other task until then.
				q.mu.Unlock()
				f := newPlanFrame(q.pool, p)
				q.mu.Lock()
				p.frame = f
				q.changed()
			}
			return p, slice, true
		}
		// Tasks exist but none is runnable under the barrier discipline
		// (or pipeline depth): synchronization, not starvation.
		barrier = true
		block()
	}
}

// handout returns the task at position pos of p's handout order.
func (p *picState) handout(pos int) int {
	if p.order != nil {
		return p.order[pos]
	}
	return pos
}

// pickTask chooses which of p's unissued tasks worker wi receives and
// swaps it to the head position p.nextSlice, so every task is still
// handed out exactly once (the caller holds q.mu and advances
// p.nextSlice). With gated set only tasks that are ready qualify, and
// pickTask reports false when none is. On a pool of more than one worker,
// the qualifying task that starts in worker wi's band (bandOf) wins, so a
// worker's chain through consecutive pictures reads reference rows it
// wrote itself, except at the band edges; otherwise, and on a miss, the
// first in packed order wins — the preference is work-conserving, so no
// worker idles while work exists. The scan is O(tasks-per-picture) per
// take — a handful of band-grain tasks.
func (q *sliceQueue) pickTask(p *picState, wi int, gated bool) bool {
	head := p.nextSlice
	steer := q.workers > 1
	pick := -1
	for pos := head; pos < p.nTasks; pos++ {
		ti := p.handout(pos)
		if gated && !ready(p, ti) {
			continue
		}
		if pick < 0 {
			pick = pos
		}
		if !steer {
			break
		}
		if _, _, r, ok := taskRows(p, ti); ok && bandOf(r, q.workers, p.params.MBHeight) == wi {
			pick = pos
			break
		}
	}
	if pick < 0 {
		return false
	}
	if pick != head {
		if p.order == nil {
			// Materialize the identity order so positions can swap.
			p.order = make([]int, p.nTasks)
			for i := range p.order {
				p.order[i] = i
			}
		}
		p.order[head], p.order[pick] = p.order[pick], p.order[head]
	}
	return true
}

// bandOf returns which of `bands` equal horizontal bands of a picture mbh
// macroblock rows high row lies in: pickTask's steering rule, and the
// trace generator's band labelling.
func bandOf(row, bands, mbh int) int {
	return min(row*bands/mbh, bands-1)
}

func (q *sliceQueue) fail() {
	q.mu.Lock()
	q.failed = true
	q.changed()
	q.mu.Unlock()
}

// finish records one completed task ti of p — the spans of macroblocks it
// reconstructed, what it tallied and, in a task's queue, its error — and
// reports whether it was the picture's last. A row of a rowwise picture
// that the task filled is published here, under q.mu, to the tasks
// waiting on it: every macroblock of it is final, because the task that
// owns the row has returned and concealment only ever writes macroblocks
// nothing covered. The picture is NOT yet marked complete: the finishing
// worker still owns the frame for completion work (concealing missing
// macroblocks) and must call completePic afterwards — publishing
// completeness first would let dependent pictures read the frame while
// concealment writes it. In a task's queue finish reports false all the
// same: the owner's take hands the picture over.
func (q *sliceQueue) finish(p *picState, ti int, spans []mbSpan, tl *tally, err error) bool {
	q.mu.Lock()
	if p.rowCov == nil {
		mbw, mbh := p.params.MBWidth, p.params.MBHeight
		n := mbh + (mbw*mbh+63)/64
		buf := q.spare[:0]
		if cap(buf) < n {
			buf = make([]uint64, n)
		}
		buf, q.spare = buf[:n], nil
		clear(buf)
		p.rowCov = buf[:mbh]
		p.cov = coverage{bits: buf[mbh:], total: mbw * mbh}
	}
	published := false
	mbw := p.params.MBWidth
	for _, s := range spans {
		for lo := max(s.first, 0); lo <= s.last && lo < p.cov.total; {
			r := lo / mbw
			hi := min(s.last, r*mbw+mbw-1)
			if n := p.cov.addRange(lo, hi); n > 0 {
				p.rowCov[r] += uint64(n)
				published = published || p.rowCov[r] == uint64(mbw)
			}
			lo = hi + 1
		}
	}
	q.sum.work.Add(tl.work)
	q.sum.es.Add(tl.es)
	q.sum.sst.Add(tl.sst)
	if err != nil && q.solo && (q.err == nil || ti < q.errAt) {
		q.err, q.errAt = err, ti
	}
	p.remaining--
	done := p.remaining == 0
	if published && p.rowwise && p.deps > 0 || done && q.solo {
		q.changed()
	}
	q.mu.Unlock()
	return done && !q.solo
}

// completePic publishes p as complete, waking pictures that wait on it,
// and tallies what completing it concealed. Call only after every task of
// p has finished and all completion-time writes to the frame are done. The
// caller goes on to hand p to the display process, where the frame
// consumer may hold it for as long as it likes: from here to shipPic it is
// not busy.
func (q *sliceQueue) completePic(p *picState, es ErrorStats) {
	q.mu.Lock()
	p.complete = true
	q.sum.es.Add(es)
	if !q.improved {
		q.spare = p.rowCov[:cap(p.rowCov)]
	}
	q.busy--
	q.changed()
	q.mu.Unlock()
}

// shipPic records that p has been handed to the display process, which
// advances the depth window (see sliceQueue.depth) and lets the queue forget
// every picture up to the first still unshipped: the depth and barrier rules
// look back only at pictures that are not, and indices into pics are never
// kept across q.mu. Call after disp.push.
func (q *sliceQueue) shipPic(p *picState) {
	q.mu.Lock()
	p.shipped = true
	n := 0
	for n < len(q.pics) && q.pics[n].shipped {
		n++
	}
	q.pics = slices.Delete(q.pics, 0, n)
	q.issueIdx = max(q.issueIdx-n, 0)
	q.busy++
	q.changed()
	q.mu.Unlock()
}

// drive is the loop every worker of a slice queue runs — a stream queue's
// helpers, a task's owner and its helpers alike: take a task, run it
// and finish it; complete (conceal, publish, hand to display, ship) each
// picture finish or take hands over; stop when take has nothing more. note
// hears of every task run (ti, from t0). A FailFast failure fails the
// queue and is returned.
func (s *Session) drive(q *sliceQueue, wi int, ws *WorkerStats, opt Options, scr *sliceScratch, leave func() bool, note func(p *picState, ti int, t0 time.Time)) error {
	for {
		p, ti, ok := q.take(wi, ws, leave)
		if !ok {
			return nil
		}
		if ti >= 0 {
			t0 := time.Now()
			reg := rtrace.StartRegion(context.Background(), "mpeg2par.sliceTask")
			var tl tally
			scr.taskSpans = scr.taskSpans[:0]
			err := runPlanSliceTask(&s.seq, p, ti, wi, opt, scr, &tl)
			reg.End()
			note(p, ti, t0)
			done := q.finish(p, ti, scr.taskSpans, &tl, err)
			if err != nil && !q.solo {
				q.fail()
				return err
			}
			if !done {
				continue
			}
		}
		// Every task of p has returned: nothing writes p.cov any more.
		var es ErrorStats
		err := q.err
		if err == nil && p.fate == fateDecode {
			err = concealUncovered(p, &p.cov, opt, &es)
		}
		if err != nil {
			q.fail()
			return err
		}
		q.completePic(p, es)
		releaseHolds(s.pool, p)
		s.disp.push(p.frame, p.displayIdx)
		q.shipPic(p)
	}
}

// sliceScratch is one worker's reusable decode state: a bit reader, a
// macroblock buffer, the reconstruction's dequantization tables and the
// spans of macroblocks its current task has reconstructed, recycled
// across every slice the worker decodes so the steady-state loop is
// allocation-free.
type sliceScratch struct {
	r         bits.Reader
	mbs       []mpeg2.MB
	rec       decoder.Scratch
	taskSpans []mbSpan
}

// mbSpan is a run of consecutive macroblock addresses, first through last,
// that a task reconstructed.
type mbSpan struct{ first, last int }

// addSpans appends the addresses of mbs to the task's spans, extending the
// last span where they continue it: a slice decoded cleanly is one span.
func (scr *sliceScratch) addSpans(mbs []mpeg2.MB) {
	for i := range mbs {
		a := mbs[i].Addr
		if n := len(scr.taskSpans); n > 0 && scr.taskSpans[n-1].last == a-1 {
			scr.taskSpans[n-1].last = a
			continue
		}
		scr.taskSpans = append(scr.taskSpans, mbSpan{a, a})
	}
}

// concealRef returns the frame p's lost macroblocks are concealed from.
func concealRef(p *picState) *frame.Frame {
	refs := picRefs(p)
	if refs.Fwd != nil {
		return refs.Fwd
	}
	return refs.Bwd
}

// picRefs resolves a picture's prediction reference frames.
func picRefs(p *picState) decoder.Refs {
	refs := decoder.Refs{}
	if p.fwd != nil {
		refs.Fwd = p.fwd.frame
	}
	if p.bwd != nil {
		refs.Bwd = p.bwd.frame
	}
	return refs
}

// decodeSliceRange parses and reconstructs the slice at sr into dst,
// reading only the bytes the scan attributed to it — a corrupted slice
// can therefore never run past its startcode-delimited range, which is
// what makes mid-slice resync deterministic. maxAddr is the inclusive
// macroblock address bound of the slice's span (sliceSpanBounds), so a
// corrupted slice can also never write pixels another concurrently
// decoding slice owns. The macroblocks it reconstructed are appended to
// scr's task spans, and are what scr.mbs holds on return.
func decodeSliceRange(data []byte, seq *mpeg2.SequenceHeader, hdr *mpeg2.PictureHeader, params *mpeg2.PictureParams, sr SliceRange, maxAddr int, refs decoder.Refs, dst *frame.Frame, scr *sliceScratch) (decoder.WorkStats, error) {
	scr.r.Reset(data[:sr.End])
	scr.r.SeekBit(int64(sr.Offset) * 8)
	code, err := scr.r.ReadStartCode()
	if err != nil {
		return decoder.WorkStats{}, err
	}
	ds, err := mpeg2.DecodeSliceBounded(&scr.r, params, int(code)-1, maxAddr, scr.mbs)
	scr.mbs = ds.MBs // keep the grown buffer for the next slice
	if err != nil {
		return decoder.WorkStats{}, fmt.Errorf("core: slice row %d: %w", int(code)-1, err)
	}
	work, err := scr.rec.ReconSlice(seq, hdr, refs, dst, &ds)
	if err == nil {
		scr.addSpans(ds.MBs)
	}
	return work, err
}
