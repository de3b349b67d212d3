// Package memtrace defines the memory-reference trace interface the
// decoder's trace replay emits into, plus a recording implementation that
// feeds the cache simulator.
//
// This substitutes for the paper's TangoLite execution-driven reference
// generator: instead of instrumenting every load/store of a compiled
// binary, a replay of each reconstructed slice (decoder.TraceSlice)
// reports the extents its reconstruction touched (frame plane rows read
// by motion compensation, rows written by reconstruction, coefficient
// blocks), and the trace generator adds the bitstream bytes. Addresses are synthetic but
// layout-faithful: each buffer gets a contiguous region of a virtual
// address space, so spatial locality (sequential rows, strided plane
// walks) and inter-processor sharing are preserved — which is exactly what
// the paper's Figures 13–15 measure.
package memtrace

import "sync"

// Tracer receives the reconstruction memory-reference stream. A nil
// Tracer everywhere means tracing is off; callers nil-check before use.
type Tracer interface {
	// Base returns a stable virtual base address for the buffer whose
	// backing array starts at key, registering size bytes on first use.
	Base(key *byte, size int) uint64
	// Access records that processor proc touched size bytes at addr.
	Access(proc int, addr uint64, size int, write bool)
}

// Event is one recorded access extent.
type Event struct {
	Proc  int32
	Write bool
	Size  int32
	Addr  uint64
}

// Recorder collects events in memory. It is safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	next   uint64
	bases  map[*byte]uint64
	events []Event
}

// NewRecorder returns an empty Recorder. Virtual addresses start above
// zero and buffers are page-aligned so distinct buffers never share a
// cache line.
func NewRecorder() *Recorder {
	return &Recorder{next: 1 << 12, bases: make(map[*byte]uint64)}
}

// Base implements Tracer.
func (r *Recorder) Base(key *byte, size int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.bases[key]; ok {
		return b
	}
	b := r.next
	r.bases[key] = b
	r.next += (uint64(size) + 4095) &^ 4095
	return b
}

// Access implements Tracer.
func (r *Recorder) Access(proc int, addr uint64, size int, write bool) {
	if size <= 0 {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, Event{Proc: int32(proc), Write: write, Size: int32(size), Addr: addr})
	r.mu.Unlock()
}

// Events returns the recorded stream in arrival order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Reset discards recorded events but keeps buffer base assignments.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = r.events[:0]
	r.mu.Unlock()
}
