package decoder

import (
	"testing"

	"mpeg2par/internal/frame"
	"mpeg2par/internal/kernels"
	"mpeg2par/internal/motion"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/quant"
	"mpeg2par/internal/vlc"
)

// reconCase is one hand-built predicted macroblock shape: the picture
// type it lives in and how to fill its header fields. Vectors, field
// selects and residuals are drawn per macroblock by reconSlice.
type reconCase struct {
	name        string
	pic         vlc.PictureCoding
	typ         vlc.MBType
	cbp         int
	fieldMotion bool
	fieldDCT    bool
}

var reconCases = []reconCase{
	{name: "P-uncoded", pic: vlc.CodingP, typ: vlc.MBType{MotionForward: true}},
	{name: "P-coded", pic: vlc.CodingP, typ: vlc.MBType{MotionForward: true, Pattern: true}, cbp: 0x2D},
	{name: "B-bidir", pic: vlc.CodingB, typ: vlc.MBType{MotionForward: true, MotionBackward: true, Pattern: true}, cbp: 0x21},
	{name: "B-field", pic: vlc.CodingB, typ: vlc.MBType{MotionForward: true, MotionBackward: true, Pattern: true}, cbp: 0x3F,
		fieldMotion: true, fieldDCT: true},
	{name: "B-backward-field", pic: vlc.CodingB, typ: vlc.MBType{MotionBackward: true}, fieldMotion: true},
}

const reconW, reconH = 96, 64 // 6×4 macroblocks: every edge and an interior

// reconFixture returns headers for a reconW×reconH picture of the case's
// type, two noise reference frames, and a slice holding every macroblock
// of the picture in the case's shape: vectors reach past every picture
// edge (so the clamp is exercised) in all four half-pel phases, and the
// coded blocks carry a few quantised coefficients each.
func reconFixture(c reconCase, seed uint64) (*mpeg2.SequenceHeader, *mpeg2.PictureHeader, Refs, *mpeg2.DecodedSlice) {
	seq := &mpeg2.SequenceHeader{Width: reconW, Height: reconH}
	seq.Normalize()
	ph := &mpeg2.PictureHeader{Type: c.pic, FCode: [2][2]int{{3, 3}, {3, 3}}, FramePredFrameDCT: !c.fieldMotion && !c.fieldDCT}
	rng := storeRNG(seed | 1)
	noise := func() *frame.Frame {
		f := frame.New(reconW, reconH)
		for _, p := range [][]uint8{f.Y, f.Cb, f.Cr} {
			for i := range p {
				p[i] = uint8(rng.next())
			}
		}
		return f
	}
	refs := Refs{Fwd: noise(), Bwd: noise()}
	mbw, mbh := seq.MBWidth(), seq.MBHeight()
	ds := &mpeg2.DecodedSlice{MBs: make([]mpeg2.MB, mbw*mbh)}
	mv := func() motion.MV { return motion.MV{X: int(rng.next()%61) - 30, Y: int(rng.next()%61) - 30} }
	for i := range ds.MBs {
		mb := &ds.MBs[i]
		mb.Addr, mb.Type, mb.CBP, mb.QScaleCode = i, c.typ, c.cbp, 4
		mb.FieldMotion, mb.FieldDCT = c.fieldMotion, c.fieldDCT
		mb.MVFwd, mb.MVFwd2, mb.MVBwd, mb.MVBwd2 = mv(), mv(), mv(), mv()
		for k := 0; k < 2; k++ {
			mb.FieldSelFwd[k], mb.FieldSelBwd[k] = rng.next()&1 != 0, rng.next()&1 != 0
		}
		for b := 0; b < 6; b++ {
			if c.cbp&(1<<uint(5-b)) != 0 {
				for k := 0; k < 5; k++ {
					mb.Blocks[b][rng.next()%64] = int32(rng.next()%41) - 20
				}
				mb.Blocks[b][0] |= 1 // a coded block has a coefficient
			}
		}
	}
	return seq, ph, refs, ds
}

// reconOld reconstructs mb the way this package did while predictions
// lived in MBPred buffers: both directions through motion.PredictMB /
// PredictMBField, AverageMB, then every block stored from the buffer —
// with its residual where coded, copied where not.
func reconOld(seq *mpeg2.SequenceHeader, ph *mpeg2.PictureHeader, refs Refs, dst *frame.Frame, mb *mpeg2.MB, mbx, mby int) {
	var pred, pred2 motion.MBPred
	dir := func(p *motion.MBPred, ref *frame.Frame, mv, mv2 motion.MV, sel [2]bool) {
		if mb.FieldMotion {
			motion.PredictMBField(p, ref, mbx, mby, sel, mv, mv2)
		} else {
			motion.PredictMB(p, ref, mbx, mby, mv)
		}
	}
	fwd := ph.Type == vlc.CodingP || mb.Type.MotionForward
	bwd := ph.Type == vlc.CodingB && mb.Type.MotionBackward
	switch {
	case fwd && bwd:
		dir(&pred, refs.Fwd, mb.MVFwd, mb.MVFwd2, mb.FieldSelFwd)
		dir(&pred2, refs.Bwd, mb.MVBwd, mb.MVBwd2, mb.FieldSelBwd)
		motion.AverageMB(&pred, &pred, &pred2)
	case bwd:
		dir(&pred, refs.Bwd, mb.MVBwd, mb.MVBwd2, mb.FieldSelBwd)
	default:
		dir(&pred, refs.Fwd, mb.MVFwd, mb.MVFwd2, mb.FieldSelFwd)
	}
	p := quant.Params{Matrix: &seq.NonIntraMatrix, Scale: quant.Scale(mb.QScaleCode, ph.QScaleType)}
	for b := 0; b < 6; b++ {
		var blk [64]int32
		if mb.CBP&(1<<uint(5-b)) != 0 {
			blk = mb.Blocks[b]
			inverseBlock(&blk, p, blockMask(mb, b))
		}
		storePredBlockOld(dst, &pred, &blk, mbx, mby, b, mb.FieldDCT)
	}
}

// TestReconMBTierEquivalence reconstructs whole pictures of every
// predicted macroblock shape through ReconSlice at every kernel tier and
// compares them with the two-buffer reconstruction it replaced
// (reconOld): prediction straight into the frame, the in-place average
// and the in-place residual add must not move a pixel, and the quantised
// blocks must survive (the benchmark's replay reads them afterwards).
func TestReconMBTierEquivalence(t *testing.T) {
	tiers := storeTiers(t)
	for _, c := range reconCases {
		for seed := uint64(1); seed <= 3; seed++ {
			seq, ph, refs, ds := reconFixture(c, seed*0x9e3779b97f4a7c15)
			blocks := make([][6][64]int32, len(ds.MBs))
			for i := range ds.MBs {
				blocks[i] = ds.MBs[i].Blocks
			}
			for _, tier := range tiers {
				kernels.Set(tier)
				want := frame.New(reconW, reconH)
				for i := range ds.MBs {
					reconOld(seq, ph, refs, want, &ds.MBs[i], i%seq.MBWidth(), i/seq.MBWidth())
				}
				got := frame.New(reconW, reconH)
				st, err := ReconSlice(seq, ph, refs, got, ds, 0, nil)
				if err != nil {
					t.Fatalf("%s tier=%v: %v", c.name, tier, err)
				}
				if !want.Equal(got) {
					t.Fatalf("%s tier=%v seed=%d: write-once reconstruction differs from the two-buffer one", c.name, tier, seed)
				}
				if st.PredMBs != len(ds.MBs) || (st.BidirMBs != 0) != (c.typ.MotionForward && c.typ.MotionBackward) {
					t.Fatalf("%s tier=%v: work stats %+v", c.name, tier, st)
				}
				for i := range ds.MBs {
					if ds.MBs[i].Blocks != blocks[i] {
						t.Fatalf("%s tier=%v: ReconSlice modified the quantised blocks of macroblock %d", c.name, tier, i)
					}
				}
			}
		}
	}
}

// TestReconRejectedMBLeavesFrame checks that the macroblocks reconMB
// refuses — a B macroblock without a prediction direction, a non-intra
// macroblock in an I picture — are refused before the frame is touched.
func TestReconRejectedMBLeavesFrame(t *testing.T) {
	for _, c := range []reconCase{
		{name: "B-no-direction", pic: vlc.CodingB, typ: vlc.MBType{Pattern: true}, cbp: 0x3F},
		{name: "I-non-intra", pic: vlc.CodingI, typ: vlc.MBType{MotionForward: true, Pattern: true}, cbp: 0x3F},
	} {
		seq, ph, refs, ds := reconFixture(c, 7)
		ds.MBs = ds.MBs[8:9] // an interior macroblock
		dst := frame.New(reconW, reconH)
		for _, p := range [][]uint8{dst.Y, dst.Cb, dst.Cr} {
			for i := range p {
				p[i] = 0xA5
			}
		}
		if _, err := ReconSlice(seq, ph, refs, dst, ds, 0, nil); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		for _, p := range [][]uint8{dst.Y, dst.Cb, dst.Cr} {
			for i, v := range p {
				if v != 0xA5 {
					t.Fatalf("%s: rejected macroblock wrote the frame (byte %d = %#x)", c.name, i, v)
				}
			}
		}
	}
}

// TestReconSlicePredictedAllocFree extends the steady-state allocation
// pin to predicted macroblocks: the destination views and the one scratch
// prediction live on ReconSlice's stack.
func TestReconSlicePredictedAllocFree(t *testing.T) {
	for _, c := range reconCases {
		seq, ph, refs, ds := reconFixture(c, 11)
		dst := frame.New(reconW, reconH)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ReconSlice(seq, ph, refs, dst, ds, 0, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: ReconSlice allocates %.1f times per run, want 0", c.name, allocs)
		}
	}
}

// BenchmarkReconMB measures reconstruction per predicted macroblock
// shape (one op = one macroblock, walking the picture) at the active
// kernel tier.
func BenchmarkReconMB(b *testing.B) {
	for _, c := range reconCases[:4] {
		seq, ph, refs, ds := reconFixture(c, 3)
		dst := frame.New(reconW, reconH)
		b.Run(c.name, func(b *testing.B) {
			var sc Scratch
			var st WorkStats
			mbw := seq.MBWidth()
			for n := 0; n < b.N; n++ {
				k := n % len(ds.MBs)
				if err := reconMB(seq, ph, refs, dst, &ds.MBs[k], k%mbw, k/mbw, &sc, &st, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
