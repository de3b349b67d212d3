package core

import (
	"testing"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
)

// FuzzScan drives the scan process over arbitrary bytes: it must never
// panic, and any successful scan must be internally consistent. Run long
// with: go test -fuzz=FuzzScan ./internal/core
// FuzzFindStartCode compares the SWAR word-at-a-time startcode scan the
// scan process rides on against a naive byte-scan reference, over random
// buffers and every scan offset — including prefixes straddling 8-byte
// word boundaries and trailing partial words. Run long with:
// go test -fuzz=FuzzFindStartCode ./internal/core
func FuzzFindStartCode(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0xB3}, 0)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 1, 0x42}, 0) // straddles words 0 and 1
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xAF}, 3)                // zero run across the boundary
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 1}, 0)                   // prefix in a trailing partial word, no code byte
	f.Fuzz(func(t *testing.T, data []byte, from int) {
		naive := func(d []byte, i int) int {
			if i < 0 {
				i = 0
			}
			for ; i+3 < len(d); i++ {
				if d[i] == 0 && d[i+1] == 0 && d[i+2] == 1 {
					return i
				}
			}
			return -1
		}
		if got, want := bits.FindStartCode(data, from), naive(data, from); got != want {
			t.Fatalf("FindStartCode(%v, %d) = %d, naive reference = %d", data, from, got, want)
		}
	})
}

// FuzzResilientDecode is the differential fuzzer for the determinism
// contract: whatever bytes arrive, each resilience policy — FailFast among
// them, now that it is a policy of the one plan — must either fail in both
// the sequential and the improved-slice parallel mode, or succeed in both
// with bit-identical frames and identical ErrorStats.
// Run long with: go test -fuzz=FuzzResilientDecode ./internal/core
func FuzzResilientDecode(f *testing.F) {
	res, err := encoder.EncodeSequence(encoder.Config{
		Width: 48, Height: 32, Pictures: 4, GOPSize: 2, RepeatSequenceHeader: true,
	}, frame.NewSynth(48, 32))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(res.Data)
	trunc := res.Data[:len(res.Data)*3/4]
	f.Add(append([]byte(nil), trunc...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 32<<10 {
			return
		}
		for _, policy := range []Resilience{FailFast, ConcealSlice, ConcealPicture, DropGOP} {
			var seqSink collectSink
			seqSt, seqErr := Decode(data, Options{Mode: ModeSequential, Workers: 1, Resilience: policy, Sink: seqSink.add})
			var parSink collectSink
			parSt, parErr := Decode(data, Options{Mode: ModeSliceImproved, Workers: 2, Resilience: policy, Sink: parSink.add})
			if (seqErr != nil) != (parErr != nil) {
				t.Fatalf("%v: sequential err=%v, parallel err=%v", policy, seqErr, parErr)
			}
			if seqErr != nil {
				continue
			}
			if seqSt.Errors != parSt.Errors {
				t.Fatalf("%v: stats diverge: %+v vs %+v", policy, seqSt.Errors, parSt.Errors)
			}
			if len(seqSink.frames) != len(parSink.frames) {
				t.Fatalf("%v: %d vs %d frames", policy, len(seqSink.frames), len(parSink.frames))
			}
			for i := range seqSink.frames {
				if !seqSink.frames[i].Equal(parSink.frames[i]) {
					t.Fatalf("%v: frame %d diverges between modes", policy, i)
				}
			}
		}
	})
}

func FuzzScan(f *testing.F) {
	res, err := encoder.EncodeSequence(encoder.Config{Width: 48, Height: 32, Pictures: 2, GOPSize: 2},
		frame.NewSynth(48, 32))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(res.Data)
	f.Add([]byte{0, 0, 1, 0x00, 0, 0, 1, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Scan(data)
		if err != nil {
			return
		}
		for _, g := range m.GOPs {
			if g.End < g.Offset {
				t.Fatalf("GOP range inverted: %+v", g)
			}
			for _, p := range g.Pictures {
				if p.End < p.Offset {
					t.Fatalf("picture range inverted: %+v", p)
				}
				for _, sl := range p.Slices {
					if sl.End < sl.Offset || sl.Offset < p.Offset || sl.End > p.End {
						t.Fatalf("slice range outside picture: %+v in %+v", sl, p)
					}
				}
			}
		}
	})
}
