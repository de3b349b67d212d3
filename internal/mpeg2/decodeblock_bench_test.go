package mpeg2_test

import (
	"testing"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/core"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/mpeg2"
)

// codedBlocks encodes a synthetic scene with cfg and returns the coded
// blocks of its stream that keep(mb) selects, in stream order, each with its
// index in the macroblock.
func codedBlocks(tb testing.TB, cfg encoder.Config, keep func(mb *mpeg2.MB) bool) (blks [][64]int32, idx []int) {
	tb.Helper()
	res, err := encoder.EncodeSequence(cfg, frame.NewSynth(cfg.Width, cfg.Height))
	if err != nil {
		tb.Fatal(err)
	}
	m, err := core.Scan(res.Data)
	if err != nil {
		tb.Fatal(err)
	}
	err = core.VisitMacroblocks(res.Data, m, func(mb *mpeg2.MB) {
		if mb.Skipped || !keep(mb) {
			return
		}
		for b := 0; b < 6; b++ {
			if mb.CBP&(1<<uint(5-b)) != 0 {
				blks, idx = append(blks, mb.Blocks[b]), append(idx, b)
			}
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	return blks, idx
}

// BenchmarkDecodeBlock times the block-level VLD kernel alone — DC, run/level
// symbols, scatter through the scan table, mask — on the blocks of real
// encodes written back to back: the intra blocks of an 8 Mb/s all-I SIF
// stream (the benchmark's seq-intra-sif) and the sparse non-intra blocks of a
// 1.5 Mb/s IBBP one.
func BenchmarkDecodeBlock(b *testing.B) {
	sif := encoder.Config{Width: 352, Height: 240, Pictures: 2, GOPSize: 1, BitRate: 8_000_000}
	ipb := encoder.Config{Width: 352, Height: 240, Pictures: 13, GOPSize: 13, BitRate: 1_500_000}
	for _, bc := range []struct {
		name  string
		cfg   encoder.Config
		intra bool
	}{{"intra-8Mbps", sif, true}, {"nonintra-sparse", ipb, false}} {
		b.Run(bc.name, func(b *testing.B) {
			blks, idx := codedBlocks(b, bc.cfg, func(mb *mpeg2.MB) bool { return mb.Type.Intra == bc.intra })
			p := &mpeg2.PictureParams{MBWidth: 22, MBHeight: 15, Type: 1, FramePredFrameDCT: true}
			var w bits.Writer
			enc := mpeg2.NewBlockCoder(p)
			coefs := 0
			for i := range blks {
				if err := enc.Encode(&w, &blks[i], bc.intra, idx[i]); err != nil {
					b.Fatal(err)
				}
				for _, v := range blks[i] {
					if v != 0 {
						coefs++
					}
				}
			}
			data := w.Bytes()
			nbits := w.BitsWritten()

			dec := mpeg2.NewBlockCoder(p)
			var r bits.Reader
			var blk [64]int32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(blks)
				if k == 0 {
					r.Reset(data)
					dec.Reset()
				}
				if _, err := dec.Decode(&r, &blk, bc.intra, idx[k]); err != nil {
					b.Fatalf("block %d: %v", k, err)
				}
			}
			b.ReportMetric(float64(coefs)/float64(len(blks)), "coefs/block")
			b.ReportMetric(float64(nbits)/float64(len(blks)), "bits/block")
		})
	}
}
