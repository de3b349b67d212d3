package frame

import "testing"

// dirty fills every plane of f with a recognizable non-grey pattern.
func dirty(f *Frame) {
	for i := range f.Y {
		f.Y[i] = byte(i)
	}
	for i := range f.Cb {
		f.Cb[i] = 17
		f.Cr[i] = 201
	}
}

func allEqual(pl []byte, v byte) bool {
	for _, b := range pl {
		if b != v {
			return false
		}
	}
	return true
}

func TestPoolRecyclesWithoutScrub(t *testing.T) {
	p := NewPool(48, 32)
	f := p.Get()
	dirty(f)
	p.Put(f)
	g := p.Get()
	if g != f {
		t.Fatal("expected the recycled frame back")
	}
	// Without scrub the pool documents that stale pixels survive; this
	// pins the cheap default so a regression in either direction is loud.
	if allEqual(g.Y, 128) {
		t.Fatal("non-scrub pool unexpectedly cleared the luma plane")
	}
}

func TestPoolScrubClearsRecycledFrames(t *testing.T) {
	for _, mode := range []Scrub{ScrubOnGet, ScrubOnPut} {
		p := NewPool(48, 32)
		p.SetScrub(mode)
		f := p.Get()
		dirty(f)
		p.Put(f)
		// ScrubOnPut: a frame on the free list is already clean, so Get —
		// called under the slice queue's lock — never pays for the wipe.
		// ScrubOnGet: Put is cheap and the wipe waits for Get.
		if clean := allEqual(f.Y, 128) && allEqual(f.Cb, 128) && allEqual(f.Cr, 128); clean != (mode == ScrubOnPut) {
			t.Fatalf("scrub mode %d: frame on the free list clean = %v", mode, clean)
		}
		g := p.Get()
		if g != f {
			t.Fatal("expected the recycled frame back")
		}
		if !allEqual(g.Y, 128) || !allEqual(g.Cb, 128) || !allEqual(g.Cr, 128) {
			t.Fatalf("scrub mode %d: pool handed out stale pixels from a previous use", mode)
		}
		st := p.Stats()
		if st.AllocBytes != int64(f.Bytes()) {
			t.Fatalf("scrub must recycle, not reallocate: alloc=%d want %d",
				st.AllocBytes, f.Bytes())
		}
	}
}

func TestFillPlane(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		pl := make([]byte, n)
		for i := range pl {
			pl[i] = byte(i + 1)
		}
		fillPlane(pl, 128)
		if !allEqual(pl, 128) {
			t.Fatalf("fillPlane failed for n=%d", n)
		}
	}
}
