package frame

import "sync"

// Store is a stock of spare frames shared by the pools of one service, so
// that a stream's frames cost an allocation (and the collector a sweep)
// only while the service's working set grows, not once per stream. A Pool
// attached with SetStore draws from the store when its own free list is
// empty and gives its idle frames back with HandBack when its stream ends.
//
// The store is bounded in bytes by its own state: what it keeps idle never
// exceeds twice what is lent — the bytes attached pools have drawn and not
// yet handed back. The stock has to seat what the live tenants will hand
// back, which is their peaks; a pool only grows, so a tenant met at a
// random point of its life holds about half of what it will end with, and
// twice the lent bytes is that sum of peaks. The service's frame memory
// thus stays within three times what its live streams use; with no live
// stream the bound is zero and the store is empty, and a frame larger than
// the bound (one oversized stream among a few small ones) is never kept.
// The bound is enforced where lent bytes fall, in the hand-back.
//
// A frame that leaves the store has belonged to another stream: Pool.Get
// clears it to mid-grey before anyone decodes into it: tenant isolation,
// not decode hygiene — within one stream, a recycled frame is not cleared.
type Store struct {
	mu    sync.Mutex
	spare map[[2]int][]*Frame // by coded width and height
	st    StoreStats
}

// StoreStats is a snapshot of a store's counters.
type StoreStats struct {
	Reused     int64 // frames handed to a pool from the spare stock
	Fresh      int64 // frames allocated because the stock had none that fit
	SpareBytes int64 // bytes idle in the store now
	PeakBytes  int64 // high watermark of SpareBytes
	LentBytes  int64 // bytes attached pools have drawn and not handed back
}

// Bound returns the most the store would keep at the snapshot's LentBytes.
func (s StoreStats) Bound() int64 { return 2 * s.LentBytes }

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
	if l := s.spare[key]; len(l) > 0 {
		f = l[len(l)-1]
		l[len(l)-1] = nil
		s.spare[key] = l[:len(l)-1]
		s.st.SpareBytes -= int64(f.Bytes())
		s.st.LentBytes += int64(f.Bytes())
		s.st.Reused++
		s.mu.Unlock()
		f.Width, f.Height = width, height
		return f, true
	}
	s.mu.Unlock()
	f = New(width, height)
	s.mu.Lock()
	s.st.LentBytes += int64(f.Bytes())
	s.st.Fresh++
	s.mu.Unlock()
	return f, false
}

// handBack ends one pool's tenancy: lent bytes stop counting whether or not
// their frames came back, the idle frames are kept as far as the bound
// allows, and what the lower bound no longer allows of the older stock is
// dropped for the collector.
func (s *Store) handBack(idle []*Frame, lent int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.LentBytes -= lent
	bound := s.st.Bound()
	for key, l := range s.spare {
		for len(l) > 0 && s.st.SpareBytes > bound {
			s.st.SpareBytes -= int64(l[len(l)-1].Bytes())
			l[len(l)-1] = nil
			l = l[:len(l)-1]
		}
		if len(l) == 0 {
			delete(s.spare, key)
		} else {
			s.spare[key] = l
		}
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
