package frame

import "sync"

// Pool recycles equally-sized frames and accounts for allocation, which
// the paper's memory-requirement experiments (Figures 8 and 9) measure:
// the GOP-level decoder's footprint grows with workers × GOP size while
// the slice-level decoder's does not.
//
// A frame recycled within the pool keeps its stale pixels: a decode
// overwrites every pixel of every frame it ships — by reconstruction,
// concealment or substitution — so clearing one would protect nothing
// (core's poisoned-frame tests prove it).
type Pool struct {
	mu     sync.Mutex
	free   []*Frame
	width  int
	height int

	inUseBytes int64
	peakBytes  int64
	totalAlloc int64  // cumulative bytes ever allocated (not recycled)
	store      *Store // where frames come from and go back to; nil: New and the collector
}

// NewPool returns a pool producing width×height frames.
func NewPool(width, height int) *Pool {
	return &Pool{width: width, height: height}
}

// SetStore makes the pool a tenant of s: frames its free list cannot
// supply come from s, and HandBack returns them. Call it before the first
// Get, and end every tenancy with HandBack: the store keeps frames while
// it has a tenant. The pool's own counters read as without a store — a
// frame drawn from s counts as allocated, since this pool's stream needed
// one more buffer. A nil s leaves the pool without a store.
func (p *Pool) SetStore(s *Store) {
	p.store = s
	if s != nil {
		s.attach()
	}
}

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

// Get returns a zeroed-or-recycled frame. A frame recycled within the
// pool keeps its stale pixels; one recycled through the store held another
// stream's picture and is cleared to mid-grey here, outside the pool's lock.
func (p *Pool) Get() *Frame {
	p.mu.Lock()
	var f *Frame
	crossed := false
	if n := len(p.free); n > 0 {
		f = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		if p.store != nil {
			f, crossed = p.store.take(p.width, p.height)
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
	if crossed {
		f.Fill(128)
	}
	f.TemporalRef = 0
	f.DisplayIndex = 0
	f.PictureType = 0
	f.rc = 0
	return f
}

// Put returns a frame to the pool. Put of a frame not obtained from Get
// (wrong geometry) is rejected silently to keep accounting consistent.
func (p *Pool) Put(f *Frame) {
	if f == nil || f.Width != p.width || f.Height != p.height {
		return
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
