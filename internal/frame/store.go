package frame

import "sync"

// Store is a stock of spare frames shared by the pools of one service, so
// that a stream's frames cost an allocation (and the collector a sweep)
// only while the service's working set grows, not once per stream. A Pool
// attached with SetStore is a tenant: it draws from the store when its own
// free list is empty and gives its idle frames back with HandBack when its
// stream ends.
//
// The store is bounded in bytes by its own state: what it keeps idle never
// exceeds the most that was lent at once — drawn by tenants and not yet
// handed back — over the current turnover of its tenants and the two
// before it. A turnover ends after as many hand-backs as there were live
// tenants at its start, whichever tenants hand back: a long-lived tenant
// does not hold it open. Under a steady load that peak is what the live
// streams draw between them, so what one stream hands back is the next
// one's; a window of three turnovers, not two, covers the spread of what
// one stream draws (DESIGN.md, "Frames"). A burst's stock goes
// three turnovers after the load falls; with no live tenant the bound is
// zero and the store is empty, and a frame larger than the bound is never
// kept.
// Lent bytes fall, and the bound moves down, only in a hand-back, which
// enforces it.
//
// A frame that leaves the store has belonged to another stream: Pool.Get
// clears it to mid-grey before anyone decodes into it: tenant isolation,
// not decode hygiene — within one stream, a recycled frame is not cleared.
type Store struct {
	mu    sync.Mutex
	spare map[[2]int][]*Frame // by coded width and height
	st    StoreStats

	live  int      // tenants attached and not handed back
	left  int      // hand-backs that end the current turnover
	peaks [3]int64 // most lent at once in the current turnover and the two before
}

// StoreStats is a snapshot of a store's counters.
type StoreStats struct {
	Reused     int64 // frames handed to a pool from the spare stock
	Fresh      int64 // frames allocated because the stock had none that fit
	SpareBytes int64 // bytes idle in the store now
	PeakBytes  int64 // high watermark of SpareBytes
	LentBytes  int64 // bytes attached pools have drawn and not handed back
	// WorkingBytes is the most lent at once over the current turnover of
	// the tenants and the two before it: the bound on SpareBytes.
	WorkingBytes int64
}

// Bound returns the most the store would keep in the snapshot's state.
func (s StoreStats) Bound() int64 { return s.WorkingBytes }

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{spare: make(map[[2]int][]*Frame)}
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// take lends a width×height frame: a spare one of the same coded geometry
// (recycled, its pixels another stream's) or a new one.
func (s *Store) take(width, height int) (f *Frame, recycled bool) {
	key := [2]int{Coded(width), Coded(height)}
	s.mu.Lock()
	if len(s.spare[key]) > 0 {
		f = s.pop(key)
		s.lend(int64(f.Bytes()))
		s.st.Reused++
		s.mu.Unlock()
		f.Width, f.Height = width, height
		return f, true
	}
	s.mu.Unlock()
	f = New(width, height)
	s.mu.Lock()
	s.lend(int64(f.Bytes()))
	s.st.Fresh++
	s.mu.Unlock()
	return f, false
}

// pop takes the last spare frame of a geometry that has one, under s.mu.
func (s *Store) pop(key [2]int) *Frame {
	l := s.spare[key]
	f := l[len(l)-1]
	l[len(l)-1] = nil
	if l = l[:len(l)-1]; len(l) == 0 {
		delete(s.spare, key)
	} else {
		s.spare[key] = l
	}
	s.st.SpareBytes -= int64(f.Bytes())
	return f
}

// attach registers a tenant.
func (s *Store) attach() {
	s.mu.Lock()
	s.live++
	s.mu.Unlock()
}

// lend counts n more bytes lent, under s.mu.
func (s *Store) lend(n int64) {
	s.st.LentBytes += n
	s.peaks[0] = max(s.peaks[0], s.st.LentBytes)
	s.st.WorkingBytes = max(s.st.WorkingBytes, s.peaks[0])
}

// handBack ends a tenancy: lent bytes stop counting whether or not their
// frames came back, the turnover ends if this was the last hand-back it
// waits for, the idle frames are kept as far as the bound allows, and what
// a lower bound no longer allows of the older stock is dropped for the
// collector.
func (s *Store) handBack(idle []*Frame, lent int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.LentBytes -= lent
	s.live--
	if s.left--; s.left <= 0 {
		s.left = s.live
		s.peaks = [3]int64{s.st.LentBytes, s.peaks[0], s.peaks[1]}
		if s.live == 0 {
			s.peaks = [3]int64{} // no tenant is live: keep nothing
		}
		s.st.WorkingBytes = max(s.peaks[0], s.peaks[1], s.peaks[2])
	}
	bound := s.st.Bound()
	for s.st.SpareBytes > bound {
		// Largest frames first: a fixed order (the map's is random) that
		// keeps as many frames as the bound allows.
		var key [2]int
		for k := range s.spare {
			if k[0]*k[1] > key[0]*key[1] || k[0]*k[1] == key[0]*key[1] && k[0] > key[0] {
				key = k
			}
		}
		s.pop(key)
	}
	for _, f := range idle {
		if s.st.SpareBytes+int64(f.Bytes()) > bound {
			continue
		}
		key := [2]int{f.CodedW, f.CodedH}
		s.spare[key] = append(s.spare[key], f)
		s.st.SpareBytes += int64(f.Bytes())
	}
	if s.st.SpareBytes > s.st.PeakBytes {
		s.st.PeakBytes = s.st.SpareBytes
	}
}
