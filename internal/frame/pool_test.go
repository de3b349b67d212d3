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
	// A frame recycled within the pool keeps its stale pixels: every
	// decode overwrites each pixel it ships, so the pool pays no wipe.
	if allEqual(g.Y, 128) {
		t.Fatal("the pool cleared a frame recycled within it")
	}
}

// TestFillPlane: Fill's doubling copy covers planes of every length,
// including the empty and the odd.
func TestFillPlane(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		f := &Frame{Y: make([]byte, n), Cb: make([]byte, n/4), Cr: make([]byte, n/4+1)}
		dirty(f)
		f.Fill(128)
		if !allEqual(f.Y, 128) || !allEqual(f.Cb, 128) || !allEqual(f.Cr, 128) {
			t.Fatalf("Fill failed for n=%d", n)
		}
	}
}
