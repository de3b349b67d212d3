package frame

import "testing"

func clean(f *Frame) bool {
	return allEqual(f.Y, 128) && allEqual(f.Cb, 128) && allEqual(f.Cr, 128)
}

// tenant returns a pool attached to s with n frames drawn and put back, so
// that HandBack has n idle frames to offer.
func tenant(s *Store, w, h, n int) *Pool {
	p := NewPool(w, h)
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
// hands it out, while a frame recycled inside one pool stays as it was.
func TestStoreFrameCrossesWiped(t *testing.T) {
	s := NewStore()
	live := tenant(s, 48, 32, 2) // keeps the bound above zero
	gone := tenant(s, 48, 32, 2)
	gone.HandBack()
	if st := s.Stats(); st.SpareBytes != 2*int64(New(48, 32).Bytes()) {
		t.Fatalf("two idle frames handed back, store holds %+v", st)
	}
	// Same coded size, other display size: the frame fits and takes the
	// new pool's dimensions.
	p := NewPool(40, 30)
	p.SetStore(s)
	f := p.Get()
	if st := s.Stats(); st.Reused != 1 {
		t.Fatalf("Get allocated beside a stocked store: %+v", st)
	}
	if !clean(f) {
		t.Fatal("a frame crossed pools with the other stream's pixels")
	}
	if f.Width != 40 || f.Height != 30 || f.RefCount() != 0 {
		t.Fatalf("crossed frame is %dx%d, rc %d", f.Width, f.Height, f.RefCount())
	}
	if ps := p.Stats(); ps.AllocBytes != int64(f.Bytes()) || ps.InUseBytes != int64(f.Bytes()) {
		t.Fatalf("a lent frame must count as the pool's own: %+v", ps)
	}
	dirty(f)
	p.Put(f)
	if g := p.Get(); g != f || clean(g) {
		t.Fatal("a frame recycled within the pool was not handed back as it was")
	}
	p.Put(f)
	p.HandBack()
	live.HandBack()
	if st := s.Stats(); st.SpareBytes != 0 || st.LentBytes != 0 {
		t.Fatalf("no tenant left, store holds %+v", st)
	}
}

// The store keeps no more than the most lent at once over the current
// turnover of its tenants and the two before it: the bound rises with what
// tenants draw and falls three turnovers later, a leaked frame is written
// off, and with no tenant left the store is empty. Here a is live
// throughout, so every turnover is one hand-back long.
func TestStoreBound(t *testing.T) {
	small, big := int64(New(48, 32).Bytes()), int64(New(352, 240).Bytes())
	if big <= 5*small {
		t.Fatalf("test geometry: big frame %d, five small ones %d", big, 5*small)
	}
	s := NewStore()
	want := func(step string, lent, spare, bound int64) {
		t.Helper()
		if st := s.Stats(); st.LentBytes != lent || st.SpareBytes != spare || st.Bound() != bound {
			t.Fatalf("%s: %+v, want lent %d, spare %d, bound %d", step, st, lent, spare, bound)
		}
	}
	a := tenant(s, 48, 32, 2)

	// Seven small frames were lent at once; a leaving tenant's five are
	// all kept for whoever takes its place. Its hand-back ends the first
	// turnover, which began with no tenant.
	tenant(s, 48, 32, 5).HandBack()
	want("five handed back beside two lent", 2*small, 5*small, 7*small)

	// A tenant of another size raises the bound by its own draw, so one of
	// its two frames fits beside the small stock and the other does not.
	tenant(s, 352, 240, 2).HandBack()
	want("two big frames handed back", 2*small, 5*small+big, 2*small+2*big)

	// c draws the big frame and leaks it: it is written off with the
	// tenancy, and a second hand-back is nothing.
	c := NewPool(352, 240)
	c.SetStore(s)
	c.Get()
	c.HandBack()
	c.HandBack()
	want("a leaking tenant", 2*small, 5*small, 2*small+2*big)

	// A tenant lives on a spare frame while a leaves; a's frames are kept.
	d := tenant(s, 48, 32, 1)
	a.HandBack()
	want("two turnovers after the big tenant", small, 6*small, 2*small+big)

	// One more turnover, and the big tenant's draw leaves the bound: the
	// stock falls to the most lent since, and d's frame is not kept.
	e := tenant(s, 48, 32, 1)
	d.HandBack()
	want("three turnovers after the big tenant", small, 3*small, 3*small)

	// The last tenant leaves: nothing is lent, nothing is kept, its own
	// idle frames included.
	e.HandBack()
	if st := s.Stats(); st.LentBytes != 0 || st.SpareBytes != 0 || st.Bound() != 0 || len(s.spare) != 0 {
		t.Fatalf("idle store holds %+v, %d lists", st, len(s.spare))
	}
	if st := s.Stats(); st.Reused != 3 || st.Fresh != 2+5+2 {
		t.Fatalf("counters: %+v", st)
	}
}

// A hand-back that lowers the bound trims the largest frames first,
// whatever the map's order: of five small frames and a big one in stock, a
// bound of three small frames keeps three small frames.
func TestStoreTrimsLargestFirst(t *testing.T) {
	small, big := New(48, 32), New(352, 240)
	for run := 0; run < 100; run++ {
		s := NewStore()
		live := tenant(s, 48, 32, 3) // three small frames lent: the bound
		gone := tenant(s, 48, 32, 0)
		// The stock a burst's hand-backs would leave.
		for i := 0; i < 5; i++ {
			s.spare[[2]int{48, 32}] = append(s.spare[[2]int{48, 32}], New(48, 32))
		}
		s.spare[[2]int{352, 240}] = []*Frame{New(352, 240)}
		s.st.SpareBytes = int64(5*small.Bytes() + big.Bytes())
		gone.HandBack()
		if st := s.Stats(); st.Bound() != int64(3*small.Bytes()) || st.SpareBytes != st.Bound() || len(s.spare[[2]int{48, 32}]) != 3 {
			t.Fatalf("run %d: bound %d, %d spare bytes in %d small frames, want 3 small frames", run, st.Bound(), st.SpareBytes, len(s.spare[[2]int{48, 32}]))
		}
		live.HandBack()
	}
}

// A burst of thirty-two streams, then two at a time: while the burst
// drains, each stream that takes an ended one's place draws its frames
// from the stock, and within six hand-backs of the burst's last (three
// turnovers of two streams) the stock holds no more than the two live
// streams draw. When they end, it is empty.
func TestStoreBurst(t *testing.T) { storeBurst(t, false) }

// The same burst beside a tenant that is live throughout, as a long stream
// is: the turnovers run on the other tenants' hand-backs, so the burst's
// stock goes within nine hand-backs of its last (three turnovers of three
// streams) and does not wait for the long tenant to end.
func TestStoreBurstBesideLongTenant(t *testing.T) { storeBurst(t, true) }

func storeBurst(t *testing.T, long bool) {
	const draw = 3 // frames one stream draws
	one := int64(New(48, 32).Bytes())
	s := NewStore()
	var lasting *Pool
	steady, within := 2*draw*one, 6
	if long {
		lasting = tenant(s, 48, 32, draw)
		steady, within = 3*draw*one, 9
	}
	live := make([]*Pool, 32)
	for i := range live {
		live[i] = tenant(s, 48, 32, draw)
	}
	fresh := s.Stats().Fresh
	handBacks := 0
	// Two clients carry on: live[0] and live[1] are theirs, and each of
	// their streams that ends is replaced by a new one.
	next := func(c int) {
		live[c].HandBack()
		handBacks++
		live[c] = tenant(s, 48, 32, draw)
	}
	for i := 2; i < 32; i++ {
		live[i].HandBack()
		handBacks++
		next(i % 2)
	}
	if st := s.Stats(); st.Fresh != fresh {
		t.Fatalf("streams after the burst allocated %d frames beside its stock: %+v", st.Fresh-fresh, st)
	}
	for end := handBacks + within; handBacks < end; {
		next(handBacks % 2)
	}
	for k := 0; k < 16; k++ {
		next(k % 2)
		if st := s.Stats(); st.SpareBytes > steady || st.LentBytes != steady {
			t.Fatalf("%d hand-backs after the burst: %+v (the live streams draw %d)", within+k+1, st, steady)
		}
	}
	live[0].HandBack()
	live[1].HandBack()
	if lasting != nil {
		lasting.HandBack()
	}
	if st := s.Stats(); st.SpareBytes != 0 || st.LentBytes != 0 || len(s.spare) != 0 {
		t.Fatalf("no stream live, store holds %+v", st)
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
