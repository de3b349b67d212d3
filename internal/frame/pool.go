package frame

import (
	"sync"
	"sync/atomic"
)

// Pool recycles equally-sized frames and accounts for allocation, which
// the paper's memory-requirement experiments (Figures 8 and 9) measure:
// the GOP-level decoder's footprint grows with workers × GOP size while
// the slice-level decoder's does not.
type Pool struct {
	mu     sync.Mutex
	free   []*Frame
	width  int
	height int

	inUseBytes int64
	peakBytes  int64
	totalAlloc int64        // cumulative bytes ever allocated (not recycled)
	scrub      atomic.Int32 // a Scrub
	store      *Store       // where frames come from and go back to; nil: New and the collector
}

// Scrub says whether and when a pool wipes the pixel planes of a recycled
// frame to mid-grey. In normal decoding every output pixel is overwritten,
// so a pool does not pay to clear planes; with error concealment active a
// damaged picture may legitimately ship partially synthesized content, and
// scrubbing guarantees nothing from a previous group of pictures can leak
// through a recycled buffer. The two scrubbing values wipe the same frames
// and differ only in which call pays, which the executor knows from its
// own structure.
type Scrub int32

const (
	// ScrubOff recycles frames with their stale pixels (the default).
	ScrubOff Scrub = iota
	// ScrubOnGet wipes a recycled frame as Get hands it out, immediately
	// before the decode that fills it, which also leaves it warm in that
	// worker's cache: for executors that call Get outside any lock (a
	// whole picture per worker). On 34 KB service frames this reads 4 %
	// more pictures per second than wiping at Put.
	ScrubOnGet
	// ScrubOnPut wipes a frame as Put takes it back, on the goroutine
	// that gives it up, so that a frame on the free list is clean and Get
	// is a free-list pop: for the slice queue, whose other workers wait
	// for a picture's frame (a 507 KB wipe under its lock cost slice mode
	// a fifth of its throughput under ConcealSlice).
	ScrubOnPut
)

// NewPool returns a pool producing width×height frames.
func NewPool(width, height int) *Pool {
	return &Pool{width: width, height: height}
}

// SetScrub selects the pool's scrubbing (see Scrub). Set it before the
// first Put.
func (p *Pool) SetScrub(s Scrub) { p.scrub.Store(int32(s)) }

// SetStore makes the pool a tenant of s: frames its free list cannot
// supply come from s, and HandBack returns them. Call it before the first
// Get. The pool's own counters read as without a store — a frame drawn
// from s counts as allocated, since this pool's stream needed one more
// buffer.
func (p *Pool) SetStore(s *Store) { p.store = s }

// HandBack ends the pool's tenancy of its store, if it has one: the idle
// frames go back (see Store), frames still handed out are written off, and
// the pool allocates for itself from here on. Read Stats first.
func (p *Pool) HandBack() {
	p.mu.Lock()
	s, idle, lent := p.store, p.free, p.totalAlloc
	if s != nil {
		p.store, p.free = nil, nil
	}
	p.mu.Unlock()
	if s != nil {
		s.handBack(idle, lent)
	}
}

// Get returns a zeroed-or-recycled frame. A frame recycled within the pool
// keeps its stale pixel data unless the pool scrubs: under ScrubOnGet it is
// wiped here, outside the pool's lock; under ScrubOnPut it already was. A
// frame recycled through the store held another stream's picture and is
// wiped here under every Scrub.
func (p *Pool) Get() *Frame {
	p.mu.Lock()
	var f *Frame
	if n := len(p.free); n > 0 {
		f = p.free[n-1]
		p.free = p.free[:n-1]
	}
	wipe := f != nil && Scrub(p.scrub.Load()) == ScrubOnGet
	if f == nil {
		if p.store != nil {
			f, wipe = p.store.take(p.width, p.height)
		} else {
			f = New(p.width, p.height)
		}
		p.totalAlloc += int64(f.Bytes())
	}
	p.inUseBytes += int64(f.Bytes())
	if p.inUseBytes > p.peakBytes {
		p.peakBytes = p.inUseBytes
	}
	p.mu.Unlock()
	if wipe {
		f.wipe()
	}
	f.TemporalRef = 0
	f.DisplayIndex = 0
	f.PictureType = 0
	f.rc = 0
	return f
}

// wipe sets every sample of f to mid-grey.
func (f *Frame) wipe() {
	fillPlane(f.Y, 128)
	fillPlane(f.Cb, 128)
	fillPlane(f.Cr, 128)
}

// fillPlane sets every sample of a plane to v, doubling copies so the cost
// is dominated by memmove rather than a byte loop.
func fillPlane(pl []byte, v byte) {
	if len(pl) == 0 {
		return
	}
	pl[0] = v
	for n := 1; n < len(pl); n *= 2 {
		copy(pl[n:], pl[:n])
	}
}

// Put returns a frame to the pool, wiping it first under ScrubOnPut. Put
// of a frame not obtained from Get (wrong geometry) is rejected silently
// to keep accounting consistent.
func (p *Pool) Put(f *Frame) {
	if f == nil || f.Width != p.width || f.Height != p.height {
		return
	}
	if Scrub(p.scrub.Load()) == ScrubOnPut {
		f.wipe()
	}
	p.mu.Lock()
	p.inUseBytes -= int64(f.Bytes())
	p.free = append(p.free, f)
	p.mu.Unlock()
}

// Reclaim forcibly returns f to the pool regardless of its reference
// count — the teardown path of a cancelled or failed pipeline, called
// only after every worker has stopped. Frames whose count already
// reached zero were returned through the normal Release path; for them
// Reclaim is a no-op, so a teardown sweep can never double-insert a
// frame into the free list.
func (p *Pool) Reclaim(f *Frame) bool {
	if f == nil || f.RefCount() <= 0 {
		return false
	}
	f.Retain(-f.RefCount())
	p.Put(f)
	return true
}

// Stats is a snapshot of pool accounting.
type Stats struct {
	InUseBytes int64 // bytes currently handed out
	PeakBytes  int64 // high watermark of InUseBytes
	AllocBytes int64 // cumulative fresh allocations
	FreeFrames int   // frames currently idle in the pool
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		InUseBytes: p.inUseBytes,
		PeakBytes:  p.peakBytes,
		AllocBytes: p.totalAlloc,
		FreeFrames: len(p.free),
	}
}
