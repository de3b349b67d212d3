package decoder

import (
	"testing"

	"mpeg2par/internal/frame"
	"mpeg2par/internal/kernels"
	"mpeg2par/internal/motion"
)

// storeTiers returns the kernel tiers runnable on this host, restoring
// the dispatch state afterwards.
func storeTiers(t *testing.T) []kernels.Level {
	t.Helper()
	prev := kernels.Active()
	t.Cleanup(func() { kernels.Set(prev) })
	tiers := []kernels.Level{kernels.LevelScalar, kernels.LevelSWAR}
	if kernels.Supported() == kernels.LevelASM {
		tiers = append(tiers, kernels.LevelASM)
	} else {
		t.Logf("asm tier not supported on this host (%s); testing scalar+swar only", kernels.CPUFeatures())
	}
	return tiers
}

type storeRNG uint64

func (p *storeRNG) next() uint64 {
	x := uint64(*p)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*p = storeRNG(x)
	return x
}

// residual draws from the store-kernel contract domain: mostly the IDCT
// output range [-256,255], with occasional wide int16-safe extremes.
func (p *storeRNG) residual(i int) int32 {
	switch p.next() % 8 {
	case 0:
		return 32512 // +extreme of the documented contract
	case 1:
		return -32768 // -extreme
	default:
		return int32(p.next()%512) - 256
	}
}

// placePred writes pred into f at macroblock (mbx, mby), where motion
// compensation leaves it for the in-place residual add.
func placePred(f *frame.Frame, pred *motion.MBPred, mbx, mby int) {
	for r := 0; r < 16; r++ {
		copy(f.Y[(mby*16+r)*f.YStride+mbx*16:][:16], pred.Y[r*16:])
	}
	for r := 0; r < 8; r++ {
		o := (mby*8+r)*f.CStride + mbx*8
		copy(f.Cb[o:o+8], pred.Cb[r*8:])
		copy(f.Cr[o:o+8], pred.Cr[r*8:])
	}
}

// storePredBlockOld is the store this package had while prediction lived
// in an MBPred: block b of dst = clamp(the matching rows of pred + blk),
// field- or frame-organised for luma. The in-place add must equal it.
func storePredBlockOld(dst *frame.Frame, pred *motion.MBPred, blk *[64]int32, mbx, mby, b int, fieldDCT bool) {
	psrc, pstride := pred.Cr[:], 8
	switch {
	case b < 4 && fieldDCT:
		psrc, pstride = pred.Y[(b>>1)*16+(b&1)*8:], 32
	case b < 4:
		psrc, pstride = pred.Y[(b>>1)*8*16+(b&1)*8:], 16
	case b == 4:
		psrc = pred.Cb[:]
	}
	plane, x, y, stride, step := blockGeometry(dst, mbx, mby, b, fieldDCT)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			plane[(y+r*step)*stride+x+c] = clampPixelRef(int32(psrc[r*pstride+c]) + blk[r*8+c])
		}
	}
}

// TestStoreBlockTierEquivalence reconstructs every block position of one
// macroblock under both frame and field DCT organisation at every kernel
// tier, comparing bit-exactly against the branchy per-pixel reference:
// the intra store, and the in-place residual add against the store from a
// separate prediction buffer it replaced. Residuals include the contract
// edges -32768 and 32512, predictions the all-0 and all-255 macroblocks.
func TestStoreBlockTierEquivalence(t *testing.T) {
	tiers := storeTiers(t)
	rng := storeRNG(0xfeedface12345678)

	const mbw, mbh = 3, 2 // 48×32 frame: interior and edge macroblocks
	for _, fieldDCT := range []bool{false, true} {
		for trial := 0; trial < 6; trial++ {
			var blk [64]int32
			for i := range blk {
				blk[i] = rng.residual(i)
			}
			var pred motion.MBPred
			for i := range pred.Y {
				pred.Y[i] = uint8(rng.next())
			}
			for i := range pred.Cb {
				pred.Cb[i] = uint8(rng.next())
				pred.Cr[i] = uint8(rng.next())
			}
			if trial < 2 { // prediction at either end of the pixel range
				fill := uint8(255 * trial)
				for i := range pred.Y {
					pred.Y[i] = fill
				}
				for i := range pred.Cb {
					pred.Cb[i], pred.Cr[i] = fill, fill
				}
			}

			for mby := 0; mby < mbh; mby++ {
				for mbx := 0; mbx < mbw; mbx++ {
					for b := 0; b < 6; b++ {
						// Reference: the branchy per-pixel loops, computed
						// directly from the geometry helpers.
						wantIntra := frame.New(mbw*16, mbh*16)
						plane, x, y, stride, step := blockGeometry(wantIntra, mbx, mby, b, fieldDCT)
						for r := 0; r < 8; r++ {
							for c := 0; c < 8; c++ {
								plane[(y+r*step)*stride+x+c] = clampPixelRef(blk[r*8+c])
							}
						}
						// The prediction everywhere, block b with its residual.
						wantPred := frame.New(mbw*16, mbh*16)
						placePred(wantPred, &pred, mbx, mby)
						storePredBlockOld(wantPred, &pred, &blk, mbx, mby, b, fieldDCT)

						for _, tier := range tiers {
							kernels.Set(tier)
							got := frame.New(mbw*16, mbh*16)
							storeIntraBlock(got, &blk, mbx, mby, b, fieldDCT)
							if !wantIntra.Equal(got) {
								t.Fatalf("tier=%v fieldDCT=%v mb=(%d,%d) b=%d: intra store mismatch vs reference",
									tier, fieldDCT, mbx, mby, b)
							}
							got = frame.New(mbw*16, mbh*16)
							placePred(got, &pred, mbx, mby)
							storePredBlock(got, &blk, mbx, mby, b, fieldDCT)
							if !wantPred.Equal(got) {
								t.Fatalf("tier=%v fieldDCT=%v mb=(%d,%d) b=%d trial=%d: in-place add mismatch vs store from a prediction buffer",
									tier, fieldDCT, mbx, mby, b, trial)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkStoreBlock measures the store kernels per tier.
func BenchmarkStoreBlock(b *testing.B) {
	prev := kernels.Active()
	b.Cleanup(func() { kernels.Set(prev) })
	f := frame.New(64, 64)
	var blk [64]int32
	rng := storeRNG(3)
	for i := range blk {
		blk[i] = int32(rng.next()%512) - 256
	}
	for i := range f.Y {
		f.Y[i] = uint8(rng.next())
	}

	tiers := []kernels.Level{kernels.LevelScalar, kernels.LevelSWAR}
	if kernels.Supported() == kernels.LevelASM {
		tiers = append(tiers, kernels.LevelASM)
	}
	for _, tier := range tiers {
		kernels.Set(tier)
		b.Run("intra/"+tier.String(), func(b *testing.B) {
			b.SetBytes(64)
			for i := 0; i < b.N; i++ {
				storeIntraBlock(f, &blk, 1, 1, 0, false)
			}
		})
		kernels.Set(tier)
		b.Run("pred/"+tier.String(), func(b *testing.B) {
			b.SetBytes(64)
			for i := 0; i < b.N; i++ {
				storePredBlock(f, &blk, 1, 1, 0, false)
			}
		})
	}
}
