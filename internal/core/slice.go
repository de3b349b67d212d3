package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/memtrace"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/obs"
)

// picState is one picture in the 2-D task queue (first level: pictures in
// decode order; second level: that picture's slices).
type picState struct {
	rng *PictureRange
	// data holds the bytes rng's offsets index into: the unit's (its own
	// copy of the group, or the whole stream when the unit borrows it).
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
	nextSlice int          // next task to hand out
	claim     atomic.Int32 // next task to claim, decoding the picture whole (helpDesk)
	// order, when non-nil, maps handout position to task index — the
	// scheduler's packing of this picture's tasks (LPT by default). Nil
	// means stream order. Tasks of one picture touch disjoint pixels
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

	// unit is the in-flight GOP buffer this picture decodes from; retired
	// when its last picture completes.
	unit *unitState
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
// instead of going to sleep. The scan process appends pictures as it
// discovers them and closes the queue at end of stream.
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

	// workers and affinity configure band→worker task steering (see
	// Affinity). With affinity on, take prefers handing worker wi a task
	// that starts in the wi-th of `workers` horizontal bands of the
	// picture, falling back to the first runnable task so no worker ever
	// idles while work exists.
	workers  int
	affinity Affinity

	// obs, when non-nil, receives a queue-wait or barrier-wait event for
	// every blocked take (classified by what the worker was blocked on).
	obs *obs.Tracer

	// How a blocked take waits. out[wi] marks worker wi as holding a task:
	// set by the take that handed it one, cleared by its next take (or by
	// idle, at the auto-mode gate). busy counts the marked workers, less
	// those handing a finished picture to the display process. While
	// busy > 0 whatever the taker waits for is at most one band task away,
	// so it polls gen, which every change to the queue bumps; at busy == 0
	// only the scan process or the frame consumer can end the wait, which
	// has no bound, so it sleeps on cond. Sleeping costs the wake-up: the
	// woken goroutine sits in the waker's run queue until another P steals
	// it, a picture's worth of time at SIF (DESIGN.md, "Slice queue").
	out  []bool
	busy int
	gen  atomic.Uint64
}

// changed announces a change of queue state to the blocked takes, polling
// and sleeping (the caller holds q.mu).
func (q *sliceQueue) changed() {
	q.gen.Add(1)
	q.cond.Broadcast()
}

// hold marks worker wi as holding a task or not (the caller holds q.mu).
// The last worker to let go turns the pollers into sleepers.
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
	} else if q.busy--; q.busy == 0 {
		q.changed()
	}
}

// idle records that worker wi is about to wait for something other than
// the queue (the auto-mode gate), so no blocked take polls on its account.
func (q *sliceQueue) idle(wi int) {
	q.mu.Lock()
	q.hold(wi, false)
	q.mu.Unlock()
}

// newSliceQueue builds the empty, open queue of a slice-mode decode.
func newSliceQueue(pool *frame.Pool, opt Options) *sliceQueue {
	q := &sliceQueue{
		pool:     pool,
		improved: opt.Mode == ModeSliceImproved,
		depth:    opt.Workers + 4,
		obs:      opt.Obs, workers: opt.Workers, affinity: opt.Affinity,
	}
	q.cond = sync.NewCond(&q.mu)
	return q
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
			// Simple version: barrier after every picture.
			if i > 0 && !q.pics[i-1].complete {
				return nil
			}
			q.pickTask(p, wi, false)
			return p
		}
		// Improved version: any picture inside the depth window may issue
		// a task whose reference rows are published. The common case —
		// every reference complete — skips the per-task check.
		if p.nextSlice < p.nTasks && q.pickTask(p, wi, !refsComplete(p)) {
			return p
		}
	}
	return nil
}

// take blocks until a slice task is available (returning picture and
// task index) or the queue is exhausted/failed (ok=false). The time spent
// blocked — polling or asleep, see sliceQueue.busy — is returned and
// added to ws.Wait, and each sleep counted in ws.Parks; wi identifies the
// taking worker for the wait event a blocked take records (a block with
// tasks queued behind the barrier discipline is a barrier wait, a block
// on an empty queue is starvation). A take that never blocks reads no
// clock and records nothing.
func (q *sliceQueue) take(wi int, ws *WorkerStats) (p *picState, slice int, wait time.Duration, ok bool) {
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
	q.hold(wi, false)
	defer func() {
		if !blocked {
			return
		}
		wait = time.Since(t0)
		ws.Wait += wait
		kind := obs.KindWait
		if barrier {
			kind = obs.KindBarrier
		}
		q.obs.Record(kind, wi, t0, wait, -1, -1, -1)
	}()
	for {
		if q.failed {
			return nil, 0, 0, false
		}
		// Skip over fully-issued pictures.
		for q.issueIdx < len(q.pics) && q.pics[q.issueIdx].nextSlice >= q.pics[q.issueIdx].nTasks {
			q.issueIdx++
		}
		if q.issueIdx >= len(q.pics) {
			if q.closed {
				return nil, 0, 0, false
			}
			block() // more pictures may still be appended
			continue
		}
		if p = q.next(wi); p != nil {
			if p.frame == nil {
				// Lazy allocation keeps live frames to the in-flight
				// pictures plus references — the memory property the
				// slice approach exists for. Get is a free-list pop (a
				// slice executor's pool scrubs on Put), cheap enough for
				// under q.mu.
				newPlanFrame(q.pool, p)
			}
			slice = p.handout(p.nextSlice)
			p.nextSlice++
			q.hold(wi, true)
			return p, slice, 0, true
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
// pickTask reports false when none is. Among the qualifying tasks band
// affinity prefers one that starts in worker wi's band — entry row r with
// r·workers / MBHeight == wi, the picture cut into `workers` static
// horizontal bands — so a worker's chain through consecutive pictures
// reads reference rows it wrote itself, except at the band edges;
// otherwise, and on a miss (work conservation), the first in packed
// order wins. The scan is O(tasks-per-picture) per take — a handful of
// band-grain tasks.
func (q *sliceQueue) pickTask(p *picState, wi int, gated bool) bool {
	head := p.nextSlice
	steer := q.affinity == AffinityRow && q.workers > 1
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

func (q *sliceQueue) fail() {
	q.mu.Lock()
	q.failed = true
	q.changed()
	q.mu.Unlock()
}

// finish records one completed task of p (and which macroblocks it
// reconstructed) and reports whether it was the picture's last. A row of
// a rowwise picture that the task filled is published here, under q.mu,
// to the tasks waiting on it: every macroblock of it is final, because
// the task that owns the row has returned and concealment only ever
// writes macroblocks nothing covered. The picture is NOT yet marked
// complete: the finishing worker still owns the frame for completion
// work (concealing missing macroblocks) and must call completePic
// afterwards — publishing completeness first would let dependent
// pictures read the frame while concealment writes it.
func (q *sliceQueue) finish(p *picState, addrs []int) bool {
	q.mu.Lock()
	if p.rowCov == nil {
		mbw, mbh := p.params.MBWidth, p.params.MBHeight
		words := (mbw*mbh + 63) / 64
		buf := make([]uint64, words+mbh)
		p.cov = coverage{bits: buf[:words:words], total: mbw * mbh}
		p.rowCov = buf[words:]
	}
	published := false
	for _, a := range addrs {
		if p.cov.add(a) {
			r := a / p.params.MBWidth
			p.rowCov[r]++
			published = published || p.rowCov[r] == uint64(p.params.MBWidth)
		}
	}
	if published && p.rowwise && p.deps > 0 {
		q.changed()
	}
	p.remaining--
	done := p.remaining == 0
	q.mu.Unlock()
	return done
}

// completePic publishes p as complete, waking pictures that wait on it.
// Call only after finish returned true and all completion-time writes to
// the frame are done. The caller goes on to hand p to the display process,
// where the frame consumer may hold it for as long as it likes: from here
// to shipPic it is not busy.
func (q *sliceQueue) completePic(p *picState) {
	q.mu.Lock()
	p.complete = true
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

// missing returns the addresses of macroblocks never reconstructed (call
// only after finish returned true for the picture).
func (q *sliceQueue) missing(p *picState) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if p.cov.full() {
		return nil
	}
	var out []int
	for a := 0; a < p.cov.total; a++ {
		if !p.cov.has(a) {
			out = append(out, a)
		}
	}
	return out
}

// concealMBs fills the listed macroblock addresses of p's frame by
// temporal concealment.
func concealMBs(p *picState, addrs []int) {
	ref, mbw := concealRef(p), p.params.MBWidth
	for _, a := range addrs {
		decoder.ConcealMB(p.frame, ref, a%mbw, a/mbw)
	}
}

// sliceScratch is one worker's reusable decode state: a bit reader, a
// macroblock buffer, coverage address lists (a slice's, a task's) and (for
// the executors that decode a whole picture) a coverage bitmap and the
// picture's per-task work, recycled across every slice the worker
// decodes so the steady-state loop is allocation-free.
type sliceScratch struct {
	r         bits.Reader
	mbs       []mpeg2.MB
	addrs     []int
	taskAddrs []int
	cov       coverage
	taskWork  []decoder.WorkStats
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
// decoding slice owns. The returned addresses alias scr.addrs and are
// valid until the next call with the same scr.
func decodeSliceRange(data []byte, seq *mpeg2.SequenceHeader, hdr *mpeg2.PictureHeader, params *mpeg2.PictureParams, sr SliceRange, maxAddr int, refs decoder.Refs, dst *frame.Frame, wi int, tr memtrace.Tracer, scr *sliceScratch) (decoder.WorkStats, []int, error) {
	scr.r.Reset(data[:sr.End])
	scr.r.SeekBit(int64(sr.Offset) * 8)
	code, err := scr.r.ReadStartCode()
	if err != nil {
		return decoder.WorkStats{}, nil, err
	}
	ds, err := mpeg2.DecodeSliceBounded(&scr.r, params, int(code)-1, maxAddr, scr.mbs)
	scr.mbs = ds.MBs // keep the grown buffer for the next slice
	if err != nil {
		return decoder.WorkStats{}, nil, fmt.Errorf("core: slice row %d: %w", int(code)-1, err)
	}
	work, err := decoder.ReconSlice(seq, hdr, refs, dst, &ds, wi, tr)
	if err != nil {
		return work, nil, err
	}
	scr.addrs = scr.addrs[:0]
	for i := range ds.MBs {
		scr.addrs = append(scr.addrs, ds.MBs[i].Addr)
	}
	return work, scr.addrs, nil
}
