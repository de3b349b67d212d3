package core

import (
	"testing"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/mpeg2"
)

// TestScanSkipsUserDataAndExtensions: foreign units between pictures must
// not confuse the structural index.
func TestScanSkipsUserDataAndExtensions(t *testing.T) {
	res := testStream(t, 80, 48, 4, 4)
	// Inject a user_data unit right after the GOP header.
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	insertAt := m.GOPs[0].Pictures[0].Offset
	var w bits.Writer
	w.StartCode(mpeg2.UserDataStartCode)
	for i := 0; i < 16; i++ {
		w.Put(uint32('A'+i), 8)
	}
	userData := w.Bytes()
	mut := append([]byte(nil), res.Data[:insertAt]...)
	mut = append(mut, userData...)
	mut = append(mut, res.Data[insertAt:]...)

	m2, err := Scan(mut)
	if err != nil {
		t.Fatal(err)
	}
	if m2.TotalPictures != m.TotalPictures || len(m2.GOPs) != len(m.GOPs) {
		t.Fatalf("user data changed structure: %d pics, %d GOPs", m2.TotalPictures, len(m2.GOPs))
	}
	// And the stream still decodes identically in every mode.
	want := sequentialFrames(t, res.Data)
	for _, mode := range everyMode {
		var sink collectSink
		if _, err := Decode(mut, Options{Mode: mode, Workers: 2, Sink: sink.add}); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for i := range want {
			if !sink.frames[i].Equal(want[i]) {
				t.Fatalf("%v: frame %d differs with user data present", mode, i)
			}
		}
	}
}

// TestScanFalseStartcodesInPayload: VLC payloads are startcode-free by
// construction (that's the point of startcode emulation prevention in
// MPEG); verify our encoder's output really contains no stray prefixes
// inside slice bodies.
func TestScanNoStartcodeEmulation(t *testing.T) {
	res := testStream(t, 96, 64, 8, 8)
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	for _, gop := range m.GOPs {
		for _, p := range gop.Pictures {
			for _, s := range p.Slices {
				// Within a slice body (after its 4-byte startcode) no
				// 0x000001 prefix may occur except at the very end.
				body := res.Data[s.Offset+4 : s.End]
				if i := bits.FindStartCode(body, 0); i >= 0 {
					t.Fatalf("startcode emulation inside slice at row %d offset %d", s.Row, i)
				}
			}
		}
	}
}

// TestDisplayIndexMapping: scanned display indices are a permutation of
// 0..N-1 (what the display process relies on).
func TestDisplayIndexMapping(t *testing.T) {
	res := testStream(t, 80, 48, 12, 4)
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for g := range m.GOPs {
		for pi := range m.GOPs[g].Pictures {
			idx := m.DisplayIndex(g, &m.GOPs[g].Pictures[pi])
			if seen[idx] {
				t.Fatalf("duplicate display index %d", idx)
			}
			seen[idx] = true
		}
	}
	for i := 0; i < m.TotalPictures; i++ {
		if !seen[i] {
			t.Fatalf("display index %d missing", i)
		}
	}
}
