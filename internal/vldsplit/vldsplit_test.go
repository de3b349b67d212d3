package vldsplit

import (
	"bytes"
	"hash/fnv"
	"testing"

	"mpeg2par/internal/mpeg2"
)

func pt(off int64, addr, qs int) Point {
	return Point{BitOff: off, State: mpeg2.SplitState{PrevAddr: addr, QScale: qs}}
}

func TestIndexRoundTrip(t *testing.T) {
	ix := NewIndex()
	a := []byte{0, 0, 1, 1, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60}
	b := []byte{0, 0, 1, 2, 0x11, 0x21, 0x31, 0x41, 0x51, 0x61}
	ptsA := []Point{pt(40, 5, 8), pt(56, 11, 8)}
	ptsA[1].State.DCPred = [3]int32{128, 256, 512}
	ptsA[1].State.PMV[0][0][0] = -7
	ptsA[1].State.PrevFwd = true
	if err := ix.Add(a, ptsA); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(b, []Point{pt(33, 3, 31)}); err != nil {
		t.Fatal(err)
	}
	raw, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := NewIndex()
	if err := got.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if got.Slices() != 2 || got.Points() != 3 {
		t.Fatalf("round trip: %d slices %d points, want 2/3", got.Slices(), got.Points())
	}
	ga := got.Lookup(a)
	if len(ga) != 2 || ga[0] != ptsA[0] || ga[1] != ptsA[1] {
		t.Fatalf("slice A points %+v, want %+v", ga, ptsA)
	}
	// Determinism: equal indexes marshal equal.
	raw2, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("marshal is not deterministic")
	}
}

func TestAddRejectsInvalidPoints(t *testing.T) {
	data := make([]byte, 16)
	cases := []struct {
		name string
		pts  []Point
	}{
		{"zero offset", []Point{pt(0, 3, 8)}},
		{"offset past end", []Point{pt(16*8, 3, 8)}},
		{"offsets out of order", []Point{pt(40, 3, 8), pt(40, 7, 8)}},
		{"addresses not increasing", []Point{pt(40, 5, 8), pt(48, 5, 8)}},
		{"negative address", []Point{pt(40, -1, 8)}},
		{"qscale zero", []Point{pt(40, 3, 0)}},
		{"qscale too big", []Point{pt(40, 3, 32)}},
	}
	for _, tc := range cases {
		ix := NewIndex()
		if err := ix.Add(data, tc.pts); err == nil {
			t.Errorf("%s: Add accepted invalid points", tc.name)
		}
	}
	// Empty points are silently skipped, not recorded.
	ix := NewIndex()
	if err := ix.Add(data, nil); err != nil {
		t.Fatal(err)
	}
	if ix.Slices() != 0 {
		t.Fatal("empty point list was recorded")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	ix := NewIndex()
	data := make([]byte, 32)
	if err := ix.Add(data, []Point{pt(40, 3, 8), pt(80, 7, 9)}); err != nil {
		t.Fatal(err)
	}
	raw, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := func(name string, mut []byte) {
		t.Helper()
		if err := NewIndex().UnmarshalBinary(mut); err == nil {
			t.Errorf("%s: UnmarshalBinary accepted corrupt input", name)
		}
	}
	bad("empty", nil)
	bad("bad magic", append([]byte("NOTANIDX"), raw[8:]...))
	bad("truncated", raw[:len(raw)-5])
	bad("trailing bytes", append(append([]byte(nil), raw...), 0))
	// Corrupt a point's quantiser-scale byte: validation must catch it.
	mut := append([]byte(nil), raw...)
	// Layout after the 8-byte magic: 4-byte slice count, then per slice
	// 8+4 key bytes, 4-byte point count, then points (BitOff 8, PrevAddr
	// 4, QScale 1, ...). Zero the first point's QScale.
	qsOff := 8 + 4 + 8 + 4 + 4 + 8 + 4
	mut[qsOff] = 0
	bad("invalid qscale", mut)
}

func TestSelectPoints(t *testing.T) {
	mk := func(n int) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = pt(int64(40+8*i), i, 8)
		}
		return pts
	}
	if got := SelectPoints(mk(10), 1); got != nil {
		t.Fatalf("parts=1 selected %d points, want none", len(got))
	}
	if got := SelectPoints(nil, 4); got != nil {
		t.Fatal("no candidates must select nothing")
	}
	// Fewer candidates than needed: keep them all.
	if got := SelectPoints(mk(2), 4); len(got) != 2 {
		t.Fatalf("2 candidates at parts=4: selected %d, want 2", len(got))
	}
	// Plenty of candidates: exactly parts-1 boundaries, strictly ordered,
	// roughly even.
	got := SelectPoints(mk(15), 4)
	if len(got) != 3 {
		t.Fatalf("selected %d points, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].BitOff <= got[i-1].BitOff {
			t.Fatal("selected points not strictly ordered")
		}
	}
	// 16 row-segments over 4 parts: boundaries after rows 4, 8, 12 —
	// candidate indices 3, 7, 11.
	for i, want := range []int{3, 7, 11} {
		if got[i].State.PrevAddr != want {
			t.Fatalf("boundary %d at candidate %d, want %d", i, got[i].State.PrevAddr, want)
		}
	}
}

// TestKeyOfIsFNV64a pins the written-out hash against hash/fnv — the key
// is part of the index's binary format — and that it allocates nothing.
func TestKeyOfIsFNV64a(t *testing.T) {
	for _, data := range [][]byte{nil, {0}, []byte("\x00\x00\x01\x01slice payload"), bytes.Repeat([]byte{0xa5, 0x3c}, 4097)} {
		h := fnv.New64a()
		h.Write(data)
		if got, want := KeyOf(data), (SliceKey{Hash: h.Sum64(), Len: len(data)}); got != want {
			t.Fatalf("KeyOf(%d bytes) = %+v, want %+v", len(data), got, want)
		}
	}
	data := bytes.Repeat([]byte{1, 2, 3}, 1000)
	if n := testing.AllocsPerRun(10, func() { KeyOf(data) }); n != 0 {
		t.Fatalf("KeyOf allocates %.0f times per call", n)
	}
}
