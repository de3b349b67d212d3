package mpeg2

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/motion"
	"mpeg2par/internal/vlc"
)

// expectSparsity fills mb's sparsity metadata from its Blocks the way the
// decoder records it, serving as an independent oracle for round-trip
// comparisons: per coded block, Mask has a bit for every nonzero
// coefficient and NNZ counts them.
func expectSparsity(mb *MB) {
	mb.NNZ, mb.Mask = [6]uint8{}, [6]uint64{}
	mb.SparseValid = true
	if mb.Skipped {
		return
	}
	cbp := mb.CBP
	if mb.Type.Intra {
		cbp = 0x3F
	} else if mb.Type.Pattern {
		cbp = deriveCBP(&mb.Blocks)
	}
	for i := 0; i < 6; i++ {
		if cbp&cbpBit(i) == 0 {
			continue
		}
		for j, v := range mb.Blocks[i] {
			if v != 0 {
				mb.NNZ[i]++
				mb.Mask[i] |= 1 << uint(j)
			}
		}
	}
}

func testParams(typ vlc.PictureCoding) *PictureParams {
	return &PictureParams{
		MBWidth:           22,
		MBHeight:          15,
		Type:              typ,
		FCode:             [2][2]int{{3, 3}, {3, 3}},
		IntraDCPrecision:  0,
		FramePredFrameDCT: true,
	}
}

// encodeDecodeSlice runs a slice through the codec and returns the decoded
// result, failing the test on error.
func encodeDecodeSlice(t *testing.T, p *PictureParams, row, qs int, mbs []MB) DecodedSlice {
	t.Helper()
	var w bits.Writer
	if err := EncodeSlice(&w, p, row, qs, mbs); err != nil {
		t.Fatalf("encode: %v", err)
	}
	w.StartCode(SequenceEndCode) // terminator so Peek(23)==0 triggers
	r := bits.NewReader(w.Bytes())
	code, err := r.ReadStartCode()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := DecodeSlice(r, p, int(code)-1)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return ds
}

func intraMB(addr, qs int, dc int32) MB {
	mb := MB{Addr: addr, QScaleCode: qs, Type: vlc.MBType{Intra: true}}
	for i := 0; i < 6; i++ {
		mb.Blocks[i][0] = dc + int32(i)
		mb.Blocks[i][1] = 3
		mb.Blocks[i][9] = -2
	}
	return mb
}

func TestSliceRoundTripIntra(t *testing.T) {
	p := testParams(vlc.CodingI)
	row := 3
	var mbs []MB
	for c := 0; c < p.MBWidth; c++ {
		mbs = append(mbs, intraMB(row*p.MBWidth+c, 10, int32(100+c)))
	}
	ds := encodeDecodeSlice(t, p, row, 10, mbs)
	if len(ds.MBs) != len(mbs) {
		t.Fatalf("decoded %d MBs, want %d", len(ds.MBs), len(mbs))
	}
	for i := range mbs {
		if ds.MBs[i].Addr != mbs[i].Addr {
			t.Fatalf("MB %d addr %d want %d", i, ds.MBs[i].Addr, mbs[i].Addr)
		}
		if ds.MBs[i].Blocks != mbs[i].Blocks {
			t.Fatalf("MB %d blocks differ", i)
		}
		if !ds.MBs[i].Type.Intra {
			t.Fatalf("MB %d lost intra flag", i)
		}
	}
}

func TestSliceRoundTripPWithMotionAndSkips(t *testing.T) {
	p := testParams(vlc.CodingP)
	row := 0
	mk := func(addr int, mv motion.MV, coded bool) MB {
		mb := MB{Addr: addr, QScaleCode: 8, Type: vlc.MBType{MotionForward: true}, MVFwd: mv}
		if coded {
			mb.Type.Pattern = true
			mb.Blocks[0][5] = 7
			mb.Blocks[4][0] = -3
		}
		return mb
	}
	mbs := []MB{
		mk(0, motion.MV{X: 4, Y: -6}, true),
		mk(1, motion.MV{X: 5, Y: -6}, false),
		{Addr: 2, QScaleCode: 8, Type: vlc.MBType{MotionForward: true}, Skipped: true}, // zero-vector skip
		{Addr: 3, QScaleCode: 8, Type: vlc.MBType{MotionForward: true}, Skipped: true},
		mk(4, motion.MV{X: -31, Y: 2}, true),
		intraMB(5, 8, 200),
		mk(6, motion.MV{X: 0, Y: 0}, true),
	}
	ds := encodeDecodeSlice(t, p, row, 8, mbs)
	if len(ds.MBs) != len(mbs) {
		t.Fatalf("decoded %d MBs, want %d", len(ds.MBs), len(mbs))
	}
	for i := range mbs {
		got, want := ds.MBs[i], mbs[i]
		if got.Addr != want.Addr || got.Skipped != want.Skipped {
			t.Fatalf("MB %d: got addr=%d skip=%v", i, got.Addr, got.Skipped)
		}
		if got.Type.MotionForward != want.Type.MotionForward || got.Type.Intra != want.Type.Intra {
			t.Fatalf("MB %d type %+v want %+v", i, got.Type, want.Type)
		}
		if got.MVFwd != want.MVFwd {
			t.Fatalf("MB %d mv %v want %v", i, got.MVFwd, want.MVFwd)
		}
		if got.Blocks != want.Blocks {
			t.Fatalf("MB %d blocks differ", i)
		}
	}
}

func TestSliceRoundTripBWithSkips(t *testing.T) {
	p := testParams(vlc.CodingB)
	row := 2
	base := row * p.MBWidth
	interp := vlc.MBType{MotionForward: true, MotionBackward: true}
	mbs := []MB{
		{Addr: base, QScaleCode: 12, Type: interp, MVFwd: motion.MV{X: 2, Y: 2}, MVBwd: motion.MV{X: -4, Y: 0}},
		// Skipped B macroblocks repeat the previous mode and vectors.
		{Addr: base + 1, QScaleCode: 12, Type: interp, MVFwd: motion.MV{X: 2, Y: 2}, MVBwd: motion.MV{X: -4, Y: 0}, Skipped: true},
		{Addr: base + 2, QScaleCode: 12, Type: interp, MVFwd: motion.MV{X: 2, Y: 2}, MVBwd: motion.MV{X: -4, Y: 0}, Skipped: true},
		{Addr: base + 3, QScaleCode: 12, Type: vlc.MBType{MotionBackward: true, Pattern: true}, MVBwd: motion.MV{X: -4, Y: 2}},
	}
	mbs[3].Blocks[2][17] = -9
	ds := encodeDecodeSlice(t, p, row, 12, mbs)
	if len(ds.MBs) != 4 {
		t.Fatalf("decoded %d MBs", len(ds.MBs))
	}
	for i := range mbs {
		got, want := ds.MBs[i], mbs[i]
		if got.Skipped != want.Skipped || got.MVFwd != want.MVFwd || got.MVBwd != want.MVBwd {
			t.Fatalf("MB %d: got %+v want %+v", i, got, want)
		}
		if got.Type != want.Type {
			t.Fatalf("MB %d type: got %+v want %+v", i, got.Type, want.Type)
		}
	}
}

func TestSliceQScaleChange(t *testing.T) {
	p := testParams(vlc.CodingI)
	mbs := []MB{intraMB(0, 10, 128), intraMB(1, 20, 129), intraMB(2, 20, 130)}
	ds := encodeDecodeSlice(t, p, 0, 10, mbs)
	if ds.MBs[0].QScaleCode != 10 || ds.MBs[1].QScaleCode != 20 || ds.MBs[2].QScaleCode != 20 {
		t.Fatalf("qscale sequence %d %d %d", ds.MBs[0].QScaleCode, ds.MBs[1].QScaleCode, ds.MBs[2].QScaleCode)
	}
}

func TestSliceColumnOffsetStart(t *testing.T) {
	// A slice whose first macroblock is not at column 0.
	p := testParams(vlc.CodingI)
	mbs := []MB{intraMB(p.MBWidth+5, 6, 90), intraMB(p.MBWidth+6, 6, 91)}
	ds := encodeDecodeSlice(t, p, 1, 6, mbs)
	if len(ds.MBs) != 2 || ds.MBs[0].Addr != p.MBWidth+5 {
		t.Fatalf("column offset lost: %+v", ds.MBs)
	}
}

func TestSliceEncodeErrors(t *testing.T) {
	p := testParams(vlc.CodingI)
	var w bits.Writer
	if err := EncodeSlice(&w, p, 0, 10, nil); err == nil {
		t.Fatal("empty slice must fail")
	}
	if err := EncodeSlice(&w, p, -1, 10, []MB{intraMB(0, 10, 1)}); err == nil {
		t.Fatal("negative row must fail")
	}
	if err := EncodeSlice(&w, p, 0, 0, []MB{intraMB(0, 10, 1)}); err == nil {
		t.Fatal("qscale 0 must fail")
	}
	// MB outside the row.
	if err := EncodeSlice(&w, p, 0, 10, []MB{intraMB(p.MBWidth, 10, 1)}); err == nil {
		t.Fatal("MB outside row must fail")
	}
	// Skipped first MB.
	sk := MB{Addr: 0, Skipped: true, Type: vlc.MBType{MotionForward: true}}
	if err := EncodeSlice(&w, testParams(vlc.CodingP), 0, 10, []MB{sk, intraMB(1, 10, 1)}); err == nil {
		t.Fatal("skipped first MB must fail")
	}
	// Skip in I picture.
	bad := []MB{intraMB(0, 10, 1), {Addr: 1, Skipped: true}, intraMB(2, 10, 1)}
	if err := EncodeSlice(&w, p, 0, 10, bad); err == nil {
		t.Fatal("skip in I picture must fail")
	}
	// P skip with non-zero vector.
	pp := testParams(vlc.CodingP)
	mbs := []MB{
		{Addr: 0, QScaleCode: 10, Type: vlc.MBType{MotionForward: true}, MVFwd: motion.MV{X: 2, Y: 0}},
		{Addr: 1, QScaleCode: 10, Type: vlc.MBType{MotionForward: true}, MVFwd: motion.MV{X: 2, Y: 0}, Skipped: true},
		{Addr: 2, QScaleCode: 10, Type: vlc.MBType{MotionForward: true}, MVFwd: motion.MV{X: 2, Y: 0}},
	}
	if err := EncodeSlice(&w, pp, 0, 10, mbs); err == nil {
		t.Fatal("P skip with non-zero vector must fail")
	}
	// Pattern flag without coefficients.
	pm := MB{Addr: 0, QScaleCode: 10, Type: vlc.MBType{MotionForward: true, Pattern: true}}
	if err := EncodeSlice(&w, pp, 0, 10, []MB{pm}); err == nil {
		t.Fatal("pattern without coefficients must fail")
	}
	// Motion vector outside f_code range.
	far := MB{Addr: 0, QScaleCode: 10, Type: vlc.MBType{MotionForward: true, Pattern: true}, MVFwd: motion.MV{X: 4000, Y: 0}}
	far.Blocks[0][1] = 1
	if err := EncodeSlice(&w, pp, 0, 10, []MB{far}); err == nil {
		t.Fatal("out-of-range vector must fail")
	}
}

func TestDecodeSliceErrors(t *testing.T) {
	p := testParams(vlc.CodingI)
	// quantiser_scale_code 0.
	var w bits.Writer
	w.Put(0, 5)
	w.Put(0, 1)
	if _, err := DecodeSlice(bits.NewReader(w.Bytes()), p, 0); err == nil {
		t.Fatal("qscale 0 must fail")
	}
	// Garbage macroblock data.
	w.Reset()
	w.Put(10, 5)
	w.Put(0, 1)
	w.Put(0xFFFFFFFF, 32)
	w.Put(0xFFFFFFFF, 32)
	if _, err := DecodeSlice(bits.NewReader(w.Bytes()), p, 0); err == nil {
		t.Fatal("garbage must fail")
	}
	// Slice row outside picture.
	if _, err := DecodeSlice(bits.NewReader([]byte{0x50, 0}), p, 99); err == nil {
		t.Fatal("row outside picture must fail")
	}
}

func TestDecodeSliceTruncatedNoHangNoPanic(t *testing.T) {
	// Encode a valid slice then truncate at every byte boundary: decode
	// must terminate (error or short result), never hang or panic.
	p := testParams(vlc.CodingI)
	var mbs []MB
	for c := 0; c < 8; c++ {
		mbs = append(mbs, intraMB(c, 9, int32(120+c)))
	}
	var w bits.Writer
	if err := EncodeSlice(&w, p, 0, 9, mbs); err != nil {
		t.Fatal(err)
	}
	data := w.Bytes()
	for cut := 1; cut < len(data); cut++ {
		r := bits.NewReader(data[:cut])
		if _, err := r.ReadStartCode(); err != nil {
			continue
		}
		_, _ = DecodeSlice(r, p, 0) // must return
	}
}

// TestSliceRoundTripQuick feeds randomized macroblock streams through the
// codec for every picture type.
func TestSliceRoundTripQuick(t *testing.T) {
	f := func(seed int64, typRaw uint8, qsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		typ := vlc.PictureCoding(typRaw%3) + vlc.CodingI
		p := testParams(typ)
		qs := int(qsRaw%31) + 1
		row := rng.Intn(p.MBHeight)
		base := row * p.MBWidth

		var mbs []MB
		col := 0
		prev := MB{}
		hasPrev := false
		for col < p.MBWidth {
			mb := MB{Addr: base + col, QScaleCode: qs}
			r := rng.Intn(10)
			switch {
			case typ == vlc.CodingI || r < 3:
				mb.Type = vlc.MBType{Intra: true}
				for b := 0; b < 6; b++ {
					mb.Blocks[b][0] = int32(rng.Intn(255) + 1)
					for k := 0; k < rng.Intn(6); k++ {
						mb.Blocks[b][1+rng.Intn(63)] = int32(rng.Intn(100) - 50)
					}
				}
			case typ == vlc.CodingP:
				mb.Type = vlc.MBType{MotionForward: true}
				mb.MVFwd = motion.MV{X: rng.Intn(128) - 64, Y: rng.Intn(128) - 64}
				if rng.Intn(2) == 0 {
					mb.Type.Pattern = true
					mb.Blocks[rng.Intn(6)][rng.Intn(64)] = int32(rng.Intn(50) + 1)
				}
				// Occasionally a skippable macroblock (not first/last).
				if hasPrev && col < p.MBWidth-1 && rng.Intn(4) == 0 {
					mb.Type = vlc.MBType{MotionForward: true}
					mb.MVFwd = motion.Zero
					mb.Skipped = true
					mb.Blocks = [6][64]int32{}
				}
			default: // B
				dir := rng.Intn(3)
				mb.Type = vlc.MBType{
					MotionForward:  dir != 1,
					MotionBackward: dir != 0,
				}
				if mb.Type.MotionForward {
					mb.MVFwd = motion.MV{X: rng.Intn(128) - 64, Y: rng.Intn(128) - 64}
				}
				if mb.Type.MotionBackward {
					mb.MVBwd = motion.MV{X: rng.Intn(128) - 64, Y: rng.Intn(128) - 64}
				}
				if rng.Intn(2) == 0 {
					mb.Type.Pattern = true
					mb.Blocks[rng.Intn(6)][rng.Intn(64)] = int32(rng.Intn(50) + 1)
				}
				if hasPrev && col < p.MBWidth-1 && rng.Intn(4) == 0 &&
					(prev.Type.MotionForward || prev.Type.MotionBackward) && !prev.Type.Intra {
					mb.Type = vlc.MBType{MotionForward: prev.Type.MotionForward, MotionBackward: prev.Type.MotionBackward}
					mb.Type.Pattern = false
					mb.MVFwd, mb.MVBwd = prev.MVFwd, prev.MVBwd
					mb.Skipped = true
					mb.Blocks = [6][64]int32{}
				}
			}
			if !mb.Skipped {
				prev = mb
				hasPrev = true
			}
			mbs = append(mbs, mb)
			col++
		}
		// Ensure a non-intra "pattern" MB always has a coefficient.
		for i := range mbs {
			if mbs[i].Type.Pattern {
				any := false
				for b := range mbs[i].Blocks {
					for _, v := range mbs[i].Blocks[b] {
						if v != 0 {
							any = true
						}
					}
				}
				if !any {
					mbs[i].Blocks[0][1] = 5
				}
			}
		}

		var w bits.Writer
		if err := EncodeSlice(&w, p, row, qs, mbs); err != nil {
			t.Logf("seed %d: encode: %v", seed, err)
			return false
		}
		w.StartCode(SequenceEndCode)
		r := bits.NewReader(w.Bytes())
		if _, err := r.ReadStartCode(); err != nil {
			return false
		}
		ds, err := DecodeSlice(r, p, row)
		if err != nil {
			t.Logf("seed %d: decode: %v", seed, err)
			return false
		}
		if len(ds.MBs) != len(mbs) {
			t.Logf("seed %d: %d MBs decoded, want %d", seed, len(ds.MBs), len(mbs))
			return false
		}
		for i := range mbs {
			want := mbs[i]
			got := ds.MBs[i]
			expectSparsity(&want)
			// Quant flag is derived; ignore in comparison.
			got.Type.Quant = false
			want.Type.Quant = false
			got.CBP = 0
			want.CBP = 0
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d MB %d:\n got %+v\nwant %+v", seed, i, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSliceEncode(b *testing.B) {
	p := testParams(vlc.CodingI)
	var mbs []MB
	for c := 0; c < p.MBWidth; c++ {
		mbs = append(mbs, intraMB(c, 10, int32(100+c)))
	}
	var w bits.Writer
	for i := 0; i < b.N; i++ {
		w.Reset()
		if err := EncodeSlice(&w, p, 0, 10, mbs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSliceDecode(b *testing.B) {
	p := testParams(vlc.CodingI)
	var mbs []MB
	for c := 0; c < p.MBWidth; c++ {
		mbs = append(mbs, intraMB(c, 10, int32(100+c)))
	}
	var w bits.Writer
	if err := EncodeSlice(&w, p, 0, 10, mbs); err != nil {
		b.Fatal(err)
	}
	w.StartCode(SequenceEndCode)
	data := w.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bits.NewReader(data)
		if _, err := r.ReadStartCode(); err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeSlice(r, p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeSliceIntoReuse recycles one MB buffer across two different
// slices and checks the second decode against a fresh one: every header
// field must match exactly, and block contents must match wherever the
// contract defines them (intra or CBP-set blocks). Stale Blocks in
// non-coded slots are explicitly permitted.
func TestDecodeSliceIntoReuse(t *testing.T) {
	p := testParams(vlc.CodingI)
	encode := func(row int, mbs []MB) []byte {
		var w bits.Writer
		if err := EncodeSlice(&w, p, row, 10, mbs); err != nil {
			t.Fatalf("encode: %v", err)
		}
		w.StartCode(SequenceEndCode)
		return w.Bytes()
	}
	var longMBs, shortMBs []MB
	for c := 0; c < p.MBWidth; c++ {
		longMBs = append(longMBs, intraMB(c, 10, int32(200+c)))
	}
	for c := 0; c < 5; c++ {
		shortMBs = append(shortMBs, intraMB(p.MBWidth+c, 10, int32(50+c)))
	}
	long, short := encode(0, longMBs), encode(1, shortMBs)

	decodeAfterCode := func(data []byte, buf []MB) DecodedSlice {
		r := bits.NewReader(data)
		code, err := r.ReadStartCode()
		if err != nil {
			t.Fatal(err)
		}
		ds, err := DecodeSliceInto(r, p, int(code)-1, buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return ds
	}

	// Fill the buffer with the long slice, then recycle it for the short
	// one so every reused slot carries stale Blocks from the first pass.
	first := decodeAfterCode(long, nil)
	reused := decodeAfterCode(short, first.MBs)
	fresh := decodeAfterCode(short, nil)

	if len(reused.MBs) != len(fresh.MBs) {
		t.Fatalf("reused decode yielded %d MBs, fresh %d", len(reused.MBs), len(fresh.MBs))
	}
	for i := range fresh.MBs {
		got, want := reused.MBs[i], fresh.MBs[i]
		for b := 0; b < 6; b++ {
			if want.Type.Intra || want.CBP&cbpBit(b) != 0 {
				if got.Blocks[b] != want.Blocks[b] {
					t.Fatalf("MB %d coded block %d differs after reuse", i, b)
				}
			}
			// Non-coded slots are undefined: normalize before the
			// header comparison below.
			got.Blocks[b], want.Blocks[b] = [64]int32{}, [64]int32{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("MB %d header differs after reuse:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
