package mpeg2_test

import (
	"math/rand"
	"testing"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/motion"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/vlc"
)

// BenchmarkDecodeMBHeader times the macroblock header decode — type,
// modes, motion vectors — on slices of macroblocks that are nothing but
// header (predicted, no coded block): forward-predicted ones of a P
// picture, bidirectional frame- and field-predicted ones of a B picture.
// The two I cases are the modes read alone, one bit of macroblock_type
// (plus dct_type in the interlaced one), in front of the least an intra
// macroblock can carry: six blocks of a zero DC differential and an end
// of block. One op is one slice of 44 such macroblocks, address increments
// and bookkeeping included; ns/MB is reported beside it.
func BenchmarkDecodeMBHeader(b *testing.B) {
	const mbw = 44
	for _, bc := range []struct {
		name  string
		pic   vlc.PictureCoding
		typ   vlc.MBType
		field bool
	}{
		{"P-forward", vlc.CodingP, vlc.MBType{MotionForward: true}, false},
		{"B-bidir", vlc.CodingB, vlc.MBType{MotionForward: true, MotionBackward: true}, false},
		{"B-bidir-field", vlc.CodingB, vlc.MBType{MotionForward: true, MotionBackward: true}, true},
		{"I-intra", vlc.CodingI, vlc.MBType{Intra: true}, false},
		{"I-intra-interlaced", vlc.CodingI, vlc.MBType{Intra: true}, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := &mpeg2.PictureParams{MBWidth: mbw, MBHeight: 1, Type: bc.pic, FCode: [2][2]int{{3, 3}, {3, 3}},
				FramePredFrameDCT: !bc.field}
			rng := rand.New(rand.NewSource(5))
			mv := func() motion.MV { return motion.MV{X: rng.Intn(24) - 12, Y: rng.Intn(24) - 12} }
			mbs := make([]mpeg2.MB, mbw)
			for i := range mbs {
				mbs[i] = mpeg2.MB{Addr: i, Type: bc.typ, QScaleCode: 8,
					FieldMotion: bc.field && !bc.typ.Intra, FieldDCT: bc.field && bc.typ.Intra && i&1 != 0,
					MVFwd: mv(), MVBwd: mv(), MVFwd2: mv(), MVBwd2: mv()}
			}
			var w bits.Writer
			if err := mpeg2.EncodeSlice(&w, p, 0, 8, mbs); err != nil {
				b.Fatal(err)
			}
			w.StartCode(mpeg2.SequenceEndCode)
			data := w.Bytes()

			var r bits.Reader
			var buf []mpeg2.MB
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				r.Reset(data)
				if _, err := r.ReadStartCode(); err != nil {
					b.Fatal(err)
				}
				ds, err := mpeg2.DecodeSliceInto(&r, p, 0, buf)
				if err != nil || len(ds.MBs) != mbw {
					b.Fatalf("%d macroblocks: %v", len(ds.MBs), err)
				}
				buf = ds.MBs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*mbw), "ns/MB")
		})
	}
}
