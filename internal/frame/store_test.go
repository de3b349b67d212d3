package frame

import "testing"

func clean(f *Frame) bool {
	return allEqual(f.Y, 128) && allEqual(f.Cb, 128) && allEqual(f.Cr, 128)
}

// tenant returns a pool attached to s with n frames drawn and put back, so
// that HandBack has n idle frames to offer.
func tenant(s *Store, w, h, n int, scrub Scrub) *Pool {
	p := NewPool(w, h)
	p.SetScrub(scrub)
	p.SetStore(s)
	fs := make([]*Frame, n)
	for i := range fs {
		fs[i] = p.Get()
		dirty(fs[i])
	}
	for _, f := range fs {
		p.Put(f)
	}
	return p
}

// A frame that crosses pools through the store is wiped by the Get that
// hands it out under every scrub mode — ScrubOff included, which leaves a
// frame recycled inside one pool as it was.
func TestStoreFrameCrossesWiped(t *testing.T) {
	for _, mode := range []Scrub{ScrubOff, ScrubOnGet, ScrubOnPut} {
		s := NewStore()
		live := tenant(s, 48, 32, 2, ScrubOff) // keeps the bound above zero
		gone := tenant(s, 48, 32, 2, ScrubOff)
		gone.HandBack()
		if st := s.Stats(); st.SpareBytes != 2*int64(New(48, 32).Bytes()) {
			t.Fatalf("two idle frames handed back, store holds %+v", st)
		}
		// Same coded size, other display size: the frame fits and takes
		// the new pool's dimensions.
		p := NewPool(40, 30)
		p.SetScrub(mode)
		p.SetStore(s)
		f := p.Get()
		if st := s.Stats(); st.Reused != 1 {
			t.Fatalf("scrub mode %d: Get allocated beside a stocked store: %+v", mode, st)
		}
		if !clean(f) {
			t.Fatalf("scrub mode %d: a frame crossed pools with the other stream's pixels", mode)
		}
		if f.Width != 40 || f.Height != 30 || f.RefCount() != 0 {
			t.Fatalf("scrub mode %d: crossed frame is %dx%d, rc %d", mode, f.Width, f.Height, f.RefCount())
		}
		if ps := p.Stats(); ps.AllocBytes != int64(f.Bytes()) || ps.InUseBytes != int64(f.Bytes()) {
			t.Fatalf("scrub mode %d: a lent frame must count as the pool's own: %+v", mode, ps)
		}
		p.Put(f)
		p.HandBack()
		live.HandBack()
		if st := s.Stats(); st.SpareBytes != 0 || st.LentBytes != 0 {
			t.Fatalf("scrub mode %d: no tenant left, store holds %+v", mode, st)
		}
	}
}

// The store keeps no more than twice what is lent: the bound follows the
// live tenants, falls with them, and a frame larger than it is never kept.
func TestStoreBound(t *testing.T) {
	small, big := int64(New(48, 32).Bytes()), int64(New(352, 240).Bytes())
	s := NewStore()
	live := tenant(s, 48, 32, 2, ScrubOnGet)

	// Two small frames lent: a leaving tenant's five come back as four.
	tenant(s, 48, 32, 5, ScrubOnGet).HandBack()
	if st := s.Stats(); st.LentBytes != 2*small || st.SpareBytes != 4*small || st.Bound() != 4*small {
		t.Fatalf("five handed back beside two lent: %+v", st)
	}
	// A big frame does not fit under a bound of four small ones, and does
	// not push the small ones out.
	if big <= 4*small {
		t.Fatalf("test geometry: big frame %d, bound %d", big, 4*small)
	}
	tenant(s, 352, 240, 2, ScrubOnGet).HandBack()
	if st := s.Stats(); st.SpareBytes != 4*small || st.PeakBytes != 4*small {
		t.Fatalf("big frames beside a small bound: %+v (a big frame is %d)", st, big)
	}
	// A tenant that draws one of the spare frames and never puts it back:
	// the frame is written off with the tenancy, not lent for ever.
	leaky := tenant(s, 48, 32, 1, ScrubOnGet)
	leaky.Get()
	leaky.HandBack()
	leaky.HandBack() // and a second hand-back is nothing
	if st := s.Stats(); st.LentBytes != 2*small || st.SpareBytes != 3*small {
		t.Fatalf("after a leaking tenant: %+v", st)
	}
	// A tenant that lives on a spare frame and hands it back leaves the
	// books as they were.
	other := tenant(s, 48, 32, 1, ScrubOnGet)
	if st := s.Stats(); st.LentBytes != 3*small || st.SpareBytes != 2*small {
		t.Fatalf("a third tenant drew from the stock: %+v", st)
	}
	other.HandBack()
	if st := s.Stats(); st.LentBytes != 2*small || st.SpareBytes != 3*small {
		t.Fatalf("and handed back: %+v", st)
	}
	// The last tenant leaves: nothing is lent, nothing is kept, its own
	// idle frames included.
	live.HandBack()
	if st := s.Stats(); st.LentBytes != 0 || st.SpareBytes != 0 || len(s.spare) != 0 {
		t.Fatalf("idle store holds %+v, %d lists", st, len(s.spare))
	}
	if st := s.Stats(); st.Reused != 2 || st.Fresh != 2+5+2 {
		t.Fatalf("counters: %+v", st)
	}
}

// A pool without a store behaves as it always did.
func TestPoolWithoutStore(t *testing.T) {
	p := NewPool(48, 32)
	f := p.Get()
	p.Put(f)
	p.HandBack()
	if g := p.Get(); g != f {
		t.Fatal("HandBack without a store emptied the free list")
	}
}
