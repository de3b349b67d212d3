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

func interlacedParams(typ vlc.PictureCoding) *PictureParams {
	p := testParams(typ)
	p.FramePredFrameDCT = false
	return p
}

func TestFieldMotionRoundTrip(t *testing.T) {
	p := interlacedParams(vlc.CodingP)
	mb := MB{
		Addr: 0, QScaleCode: 8,
		Type:        vlc.MBType{MotionForward: true, Pattern: true},
		FieldMotion: true,
		MVFwd:       motion.MV{X: 6, Y: -3},
		MVFwd2:      motion.MV{X: -2, Y: 5},
		FieldSelFwd: [2]bool{true, false},
		FieldDCT:    true,
	}
	mb.Blocks[0][9] = 4
	ds := encodeDecodeSlice(t, p, 0, 8, []MB{mb})
	got := ds.MBs[0]
	if !got.FieldMotion || !got.FieldDCT {
		t.Fatalf("field flags lost: %+v", got)
	}
	if got.MVFwd != mb.MVFwd || got.MVFwd2 != mb.MVFwd2 || got.FieldSelFwd != mb.FieldSelFwd {
		t.Fatalf("field vectors mangled: %+v", got)
	}
	if got.Blocks[0][9] != 4 {
		t.Fatal("coefficients lost")
	}
}

func TestFieldMotionPMVChaining(t *testing.T) {
	// Two consecutive field-coded macroblocks: the second's vectors are
	// coded differentially against doubled/halved PMVs; round-trip must
	// return the actual vectors.
	p := interlacedParams(vlc.CodingP)
	mk := func(addr int, v0, v1 motion.MV, sel [2]bool) MB {
		mb := MB{Addr: addr, QScaleCode: 8,
			Type:        vlc.MBType{MotionForward: true, Pattern: true},
			FieldMotion: true, MVFwd: v0, MVFwd2: v1, FieldSelFwd: sel}
		mb.Blocks[1][3] = 2
		return mb
	}
	mbs := []MB{
		mk(0, motion.MV{X: 3, Y: 7}, motion.MV{X: -3, Y: -7}, [2]bool{false, true}),
		mk(1, motion.MV{X: 5, Y: 1}, motion.MV{X: 5, Y: 1}, [2]bool{true, true}),
		// Frame-coded macroblock after field-coded ones.
		{Addr: 2, QScaleCode: 8, Type: vlc.MBType{MotionForward: true, Pattern: true},
			MVFwd: motion.MV{X: 2, Y: 2}},
	}
	mbs[2].Blocks[0][1] = 1
	ds := encodeDecodeSlice(t, p, 0, 8, mbs)
	for i := range mbs {
		got, want := ds.MBs[i], mbs[i]
		if got.MVFwd != want.MVFwd || got.MVFwd2 != want.MVFwd2 {
			t.Fatalf("MB %d vectors: got %v/%v want %v/%v", i, got.MVFwd, got.MVFwd2, want.MVFwd, want.MVFwd2)
		}
		if got.FieldMotion != want.FieldMotion || got.FieldSelFwd != want.FieldSelFwd {
			t.Fatalf("MB %d field info: got %+v", i, got)
		}
	}
}

func TestFieldToolsRejectedWhenProgressive(t *testing.T) {
	p := testParams(vlc.CodingP) // FramePredFrameDCT = true
	mb := MB{Addr: 0, QScaleCode: 8, Type: vlc.MBType{MotionForward: true, Pattern: true}, FieldMotion: true}
	mb.Blocks[0][1] = 1
	var w bits.Writer
	if err := EncodeSlice(&w, p, 0, 8, []MB{mb}); err == nil {
		t.Fatal("field motion with frame_pred_frame_dct=1 must fail")
	}
	mb.FieldMotion = false
	mb.FieldDCT = true
	if err := EncodeSlice(&w, p, 0, 8, []MB{mb}); err == nil {
		t.Fatal("field DCT with frame_pred_frame_dct=1 must fail")
	}
}

func TestDualPrimeRejected(t *testing.T) {
	// Hand-craft a slice whose macroblock announces frame_motion_type
	// '11' (dual prime): the decoder must reject it cleanly.
	p := interlacedParams(vlc.CodingP)
	var w bits.Writer
	w.Put(8, 5) // quantiser_scale_code
	w.Put(0, 1) // extra_bit_slice
	w.Put(1, 1) // macroblock_address_increment = 1
	w.Put(1, 1) // macroblock_type: P 'MC, coded' = '1'
	w.Put(3, 2) // frame_motion_type = '11' dual prime
	r := bits.NewReader(w.Bytes())
	if _, err := DecodeSlice(r, p, 0); err == nil {
		t.Fatal("dual prime must be rejected")
	}
}

// TestInterlacedSliceRoundTripQuick fuzzes interlaced macroblock streams.
func TestInterlacedSliceRoundTripQuick(t *testing.T) {
	f := func(seed int64, typRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		typ := vlc.CodingP
		if typRaw%2 == 1 {
			typ = vlc.CodingB
		}
		p := interlacedParams(typ)
		row := rng.Intn(p.MBHeight)
		base := row * p.MBWidth
		var mbs []MB
		for col := 0; col < 8; col++ {
			mb := MB{Addr: base + col, QScaleCode: 10}
			switch rng.Intn(4) {
			case 0: // intra, possibly field DCT
				mb.Type = vlc.MBType{Intra: true}
				mb.FieldDCT = rng.Intn(2) == 0
				for b := 0; b < 6; b++ {
					mb.Blocks[b][0] = int32(rng.Intn(200) + 1)
				}
			default:
				mb.Type = vlc.MBType{MotionForward: typ == vlc.CodingP || rng.Intn(2) == 0}
				if typ == vlc.CodingB && (!mb.Type.MotionForward || rng.Intn(2) == 0) {
					mb.Type.MotionBackward = true
				}
				rv := func() motion.MV {
					return motion.MV{X: rng.Intn(64) - 32, Y: rng.Intn(64) - 32}
				}
				if rng.Intn(2) == 0 {
					mb.FieldMotion = true
					if mb.Type.MotionForward {
						mb.MVFwd, mb.MVFwd2 = rv(), rv()
						mb.FieldSelFwd = [2]bool{rng.Intn(2) == 0, rng.Intn(2) == 0}
					}
					if mb.Type.MotionBackward {
						mb.MVBwd, mb.MVBwd2 = rv(), rv()
						mb.FieldSelBwd = [2]bool{rng.Intn(2) == 0, rng.Intn(2) == 0}
					}
				} else {
					if mb.Type.MotionForward {
						mb.MVFwd = rv()
					}
					if mb.Type.MotionBackward {
						mb.MVBwd = rv()
					}
				}
				if rng.Intn(2) == 0 {
					mb.Type.Pattern = true
					mb.FieldDCT = rng.Intn(2) == 0
					mb.Blocks[rng.Intn(6)][rng.Intn(63)+1] = int32(rng.Intn(30) + 1)
				}
			}
			mbs = append(mbs, mb)
		}
		var w bits.Writer
		if err := EncodeSlice(&w, p, row, 10, mbs); err != nil {
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
			return false
		}
		for i := range mbs {
			got, want := ds.MBs[i], mbs[i]
			expectSparsity(&want)
			got.Type.Quant, want.Type.Quant = false, false
			got.CBP, want.CBP = 0, 0
			// dct_type is only carried for intra/coded macroblocks.
			if !want.Type.Intra && !want.Type.Pattern {
				want.FieldDCT = false
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d MB %d:\n got %+v\nwant %+v", seed, i, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
