package decoder

import (
	"testing"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/kernels"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/vlc"
)

// TestGoldenHandcraftedStream builds a one-picture stream from the syntax
// primitives directly — a 16×16 I picture whose single macroblock has a
// known flat DC — and checks the decoder produces the exact pixel values
// the standard's arithmetic dictates.
func TestGoldenHandcraftedStream(t *testing.T) {
	var w bits.Writer
	seq := mpeg2.SequenceHeader{Width: 16, Height: 16}
	seq.Write(&w)
	(&mpeg2.GOPHeader{Closed: true}).Write(&w)
	ph := mpeg2.PictureHeader{
		Type:              vlc.CodingI,
		PictureStructure:  mpeg2.FramePicture,
		FramePredFrameDCT: true,
		ProgressiveFrame:  true,
		FCode:             [2][2]int{{15, 15}, {15, 15}},
	}
	ph.Write(&w)

	params := PictureParams(&seq, &ph)
	mb := mpeg2.MB{Addr: 0, QScaleCode: 2, Type: vlc.MBType{Intra: true}}
	// Quantized DC 200 with intra_dc_precision 0 dequantizes to
	// 200*8 = 1600; the IDCT of a DC-only block is 1600/8 = 200 flat.
	for b := 0; b < 6; b++ {
		mb.Blocks[b][0] = 200
	}
	if err := mpeg2.EncodeSlice(&w, &params, 0, 2, []mpeg2.MB{mb}); err != nil {
		t.Fatal(err)
	}
	w.StartCode(mpeg2.SequenceEndCode)

	d, err := New(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	frames, err := d.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("%d frames", len(frames))
	}
	f := frames[0]
	for i, v := range f.Y {
		if v != 200 {
			t.Fatalf("Y[%d] = %d, want 200", i, v)
		}
	}
	for i := range f.Cb {
		if f.Cb[i] != 200 || f.Cr[i] != 200 {
			t.Fatalf("chroma[%d] = %d/%d, want 200", i, f.Cb[i], f.Cr[i])
		}
	}
}

// TestGoldenPPictureZeroResidual: a P picture whose only macroblock is
// skipped... cannot be (first MB can't skip), so it carries a zero vector
// and no residual: the output must equal the reference exactly.
func TestGoldenPPictureZeroResidual(t *testing.T) {
	var w bits.Writer
	seq := mpeg2.SequenceHeader{Width: 16, Height: 16}
	seq.Write(&w)
	(&mpeg2.GOPHeader{Closed: true}).Write(&w)

	iph := mpeg2.PictureHeader{
		Type: vlc.CodingI, PictureStructure: mpeg2.FramePicture,
		FramePredFrameDCT: true, ProgressiveFrame: true,
		FCode: [2][2]int{{15, 15}, {15, 15}},
	}
	iph.Write(&w)
	iparams := PictureParams(&seq, &iph)
	imb := mpeg2.MB{Addr: 0, QScaleCode: 2, Type: vlc.MBType{Intra: true}}
	for b := 0; b < 6; b++ {
		imb.Blocks[b][0] = 128 + int32(b)
	}
	if err := mpeg2.EncodeSlice(&w, &iparams, 0, 2, []mpeg2.MB{imb}); err != nil {
		t.Fatal(err)
	}

	pph := mpeg2.PictureHeader{
		Type: vlc.CodingP, TemporalReference: 1,
		PictureStructure: mpeg2.FramePicture, FramePredFrameDCT: true,
		ProgressiveFrame: true, FCode: [2][2]int{{1, 1}, {15, 15}},
	}
	pph.Write(&w)
	pparams := PictureParams(&seq, &pph)
	pmb := mpeg2.MB{Addr: 0, QScaleCode: 2, Type: vlc.MBType{MotionForward: true}}
	if err := mpeg2.EncodeSlice(&w, &pparams, 0, 2, []mpeg2.MB{pmb}); err != nil {
		t.Fatal(err)
	}
	w.StartCode(mpeg2.SequenceEndCode)

	d, err := New(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	frames, err := d.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("%d frames", len(frames))
	}
	if !frames[0].Equal(frames[1]) {
		t.Fatal("zero-vector zero-residual P picture must replicate the reference")
	}
}

// TestEncoderDeterminism: the same configuration and source must produce
// byte-identical streams (the whole experiment pipeline depends on it).
func TestEncoderDeterminism(t *testing.T) {
	cfg := encoder.Config{Width: 112, Height: 80, Pictures: 7, GOPSize: 7, BitRate: 2_000_000}
	a, err := encoder.EncodeSequence(cfg, frame.NewSynth(112, 80))
	if err != nil {
		t.Fatal(err)
	}
	b, err := encoder.EncodeSequence(cfg, frame.NewSynth(112, 80))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Data) != len(b.Data) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Data), len(b.Data))
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("streams differ at byte %d", i)
		}
	}
}

// TestSparseKernelsBitExact decodes the same multi-GOP I/P/B stream with
// the active tier's block path (on the asm tier, dct.ReconBlock; else the
// sparsity-aware kernels) and with the dense quant.Inverse+dct.Inverse
// reference pair, and requires byte-identical frames — no PSNR tolerance.
// This is the whole-pipeline counterpart of the per-block equivalence
// tests in internal/quant and internal/dct and of TestReconBlockEquivalence.
func TestSparseKernelsBitExact(t *testing.T) {
	res, err := encoder.EncodeSequence(encoder.Config{
		Width: 176, Height: 112, Pictures: 13, GOPSize: 13,
	}, frame.NewSynth(176, 112))
	if err != nil {
		t.Fatal(err)
	}
	decodeAll := func(dense bool) []*frame.Frame {
		t.Helper()
		prev, prevBlock := denseKernels, asmBlock
		denseKernels, asmBlock = dense, asmBlock && !dense
		defer func() { denseKernels, asmBlock = prev, prevBlock }()
		d, err := New(res.Data)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := d.All()
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	sparse := decodeAll(false)
	dense := decodeAll(true)
	if len(sparse) != len(dense) {
		t.Fatalf("sparse decoded %d frames, dense %d", len(sparse), len(dense))
	}
	for i := range sparse {
		if !sparse[i].Equal(dense[i]) {
			t.Fatalf("frame %d: sparse kernels diverge from dense reference", i)
		}
	}
}

// TestSWARKernelsBitExact decodes a multi-GOP I/P/B stream twice — once
// with every fast kernel of the active tier enabled (SWAR or asm motion
// compensation, branchless stores or the one-call block kernel,
// word-at-a-time scan, sparse dequant+IDCT) and once with every
// scalar/dense reference forced — and requires byte-identical frames.
// This is the whole-pipeline counterpart of the per-kernel equivalence
// sweeps in internal/motion and internal/bits.
func TestSWARKernelsBitExact(t *testing.T) {
	streams := map[string]encoder.Config{
		"progressive": {Width: 176, Height: 112, Pictures: 13, GOPSize: 13},
		"interlaced":  {Width: 176, Height: 112, Pictures: 13, GOPSize: 13, Interlaced: true},
	}
	for name, cfg := range streams {
		t.Run(name, func(t *testing.T) { testSWARKernelsBitExact(t, cfg) })
	}
}

func testSWARKernelsBitExact(t *testing.T, cfg encoder.Config) {
	var src encoder.Source = frame.NewSynth(cfg.Width, cfg.Height)
	if cfg.Interlaced {
		src = frame.NewInterlacedSynth(cfg.Width, cfg.Height)
	}
	res, err := encoder.EncodeSequence(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	decodeAll := func(scalar bool) []*frame.Frame {
		t.Helper()
		if scalar {
			prev, prevDense := kernels.Active(), denseKernels
			kernels.Set(kernels.LevelScalar)
			denseKernels = true
			defer func() { kernels.Set(prev); denseKernels = prevDense }()
		}
		d, err := New(res.Data)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := d.All()
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	fast := decodeAll(false)
	ref := decodeAll(true)
	if len(fast) != len(ref) {
		t.Fatalf("fast kernels decoded %d frames, scalar reference %d", len(fast), len(ref))
	}
	for i := range fast {
		if !fast[i].Equal(ref[i]) {
			t.Fatalf("frame %d: SWAR kernels diverge from scalar reference", i)
		}
	}
}
