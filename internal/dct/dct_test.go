package dct

import (
	"math"
	"math/rand"
	"testing"
)

func TestForwardInverseRefIdentity(t *testing.T) {
	// InverseRef(ForwardRef(x)) == x exactly for in-range pixel data: the
	// transform pair is orthonormal and rounding error is < 0.5.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var b, orig [64]int32
		for i := range b {
			b[i] = int32(rng.Intn(256) - 128)
			orig[i] = b[i]
		}
		ForwardRef(&b)
		InverseRef(&b)
		for i := range b {
			if d := b[i] - orig[i]; d < -1 || d > 1 {
				t.Fatalf("trial %d idx %d: %d -> %d", trial, i, orig[i], b[i])
			}
		}
	}
}

func TestDCOnly(t *testing.T) {
	var b [64]int32
	b[0] = 240 // DC coefficient
	Inverse(&b)
	// All outputs must equal round(240/8) = 30.
	for i, v := range b {
		if v != 30 {
			t.Fatalf("idx %d = %d, want 30", i, v)
		}
	}
}

func TestDCOnlyMatchesRef(t *testing.T) {
	for _, dc := range []int32{-2048, -255, -8, 0, 8, 255, 2047} {
		var fast, ref [64]int32
		fast[0], ref[0] = dc, dc
		Inverse(&fast)
		InverseRef(&ref)
		for i := range ref {
			r := ref[i]
			if r > 255 {
				r = 255
			}
			if r < -256 {
				r = -256
			}
			if d := fast[i] - r; d < -1 || d > 1 {
				t.Fatalf("dc=%d idx %d: fast %d ref %d", dc, i, fast[i], r)
			}
		}
	}
}

// TestIEEE1180Accuracy runs an IEEE Std 1180-1990 style accuracy test of
// the fast integer IDCT against the double-precision reference:
// 10000 random blocks, per-pixel error <= 1, mean error and mean square
// error within the standard's thresholds.
func TestIEEE1180Accuracy(t *testing.T) {
	for _, rng := range []struct {
		name     string
		lo, hi   int32
		trials   int
		seedBase int64
	}{
		{"L256", -256, 255, 10000, 7},
		{"L5", -5, 5, 10000, 11},
		{"L300", -300, 300, 10000, 13},
	} {
		t.Run(rng.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(rng.seedBase))
			var sumErr, sumSq [64]float64
			maxErr := int32(0)
			for trial := 0; trial < rng.trials; trial++ {
				var spatial [64]int32
				for i := range spatial {
					spatial[i] = rng.lo + int32(r.Intn(int(rng.hi-rng.lo+1)))
				}
				// Forward-transform with the reference to get coefficients,
				// then saturate to the legal coefficient range.
				coef := spatial
				ForwardRef(&coef)
				for i := range coef {
					if coef[i] > 2047 {
						coef[i] = 2047
					}
					if coef[i] < -2048 {
						coef[i] = -2048
					}
				}
				fast := coef
				ref := coef
				Inverse(&fast)
				InverseRef(&ref)
				for i := range ref {
					// Clamp the reference like §7.4.3 requires.
					if ref[i] > 255 {
						ref[i] = 255
					}
					if ref[i] < -256 {
						ref[i] = -256
					}
					e := fast[i] - ref[i]
					if e < 0 {
						e = -e
					}
					if e > maxErr {
						maxErr = e
					}
					sumErr[i] += float64(fast[i] - ref[i])
					sumSq[i] += float64(e) * float64(e)
				}
			}
			if maxErr > 1 {
				t.Errorf("peak error %d > 1", maxErr)
			}
			n := float64(rng.trials)
			var omse float64
			for i := range sumSq {
				if me := math.Abs(sumErr[i]) / n; me > 0.015 {
					t.Errorf("pixel %d mean error %.4f > 0.015", i, me)
				}
				if mse := sumSq[i] / n; mse > 0.06 {
					t.Errorf("pixel %d MSE %.4f > 0.06", i, mse)
				}
				omse += sumSq[i] / n
			}
			if omse/64 > 0.02 {
				t.Errorf("overall MSE %.4f > 0.02", omse/64)
			}
		})
	}
}

func TestInverseAllZero(t *testing.T) {
	var b [64]int32
	Inverse(&b)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("idx %d = %d, want 0", i, v)
		}
	}
}

func TestInverseSaturates(t *testing.T) {
	// A block of max-magnitude coefficients must stay within [-256, 255].
	var b [64]int32
	for i := range b {
		if i%2 == 0 {
			b[i] = 2047
		} else {
			b[i] = -2048
		}
	}
	Inverse(&b)
	for i, v := range b {
		if v < -256 || v > 255 {
			t.Fatalf("idx %d = %d outside 9-bit range", i, v)
		}
	}
}

func TestForwardRefDC(t *testing.T) {
	// A flat block transforms to a single DC coefficient = 8*value.
	var b [64]int32
	for i := range b {
		b[i] = 100
	}
	ForwardRef(&b)
	if b[0] != 800 {
		t.Fatalf("DC = %d, want 800", b[0])
	}
	for i := 1; i < 64; i++ {
		if b[i] != 0 {
			t.Fatalf("AC[%d] = %d, want 0", i, b[i])
		}
	}
}

func TestForwardRefLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b, sum [64]int32
	for i := range a {
		a[i] = int32(rng.Intn(100) - 50)
		b[i] = int32(rng.Intn(100) - 50)
		sum[i] = a[i] + b[i]
	}
	ForwardRef(&a)
	ForwardRef(&b)
	ForwardRef(&sum)
	for i := range sum {
		if d := sum[i] - a[i] - b[i]; d < -2 || d > 2 {
			t.Fatalf("linearity violated at %d: %d vs %d+%d", i, sum[i], a[i], b[i])
		}
	}
}

// retired returns 64 copies of blk to transform in place, one after
// another: a benchmark that copies a block onto the stack right before
// each transform times the copy, and the transform's loads waiting for
// it, as much as the transform. Here each block was last written 64
// transforms earlier, and the transforms' clamp9'd outputs stay
// legitimate inputs.
func retired(blk [64]int32) *[64][64]int32 {
	var bs [64][64]int32
	for i := range bs {
		bs[i] = blk
	}
	return &bs
}

func BenchmarkInverse(b *testing.B) {
	var blk [64]int32
	rng := rand.New(rand.NewSource(3))
	for i := range blk {
		blk[i] = int32(rng.Intn(512) - 256)
	}
	bs := retired(blk)
	b.ReportMetric(1, "blocks/op")
	for i := 0; i < b.N; i++ {
		Inverse(&bs[i&63])
	}
}

func BenchmarkInverseSparse(b *testing.B) {
	// Typical post-quantization block: DC plus a couple of low-freq terms.
	var blk [64]int32
	blk[0], blk[1], blk[8] = 200, -14, 9
	bs := retired(blk)
	for i := 0; i < b.N; i++ {
		Inverse(&bs[i&63])
	}
}

func BenchmarkForwardRef(b *testing.B) {
	var blk [64]int32
	rng := rand.New(rand.NewSource(4))
	for i := range blk {
		blk[i] = int32(rng.Intn(256) - 128)
	}
	for i := 0; i < b.N; i++ {
		tmp := blk
		ForwardRef(&tmp)
	}
}

// trueRowMask returns the exact row-liveness mask of a coefficient block.
func trueRowMask(b *[64]int32) uint8 {
	var m uint8
	for i, v := range b {
		if v != 0 {
			m |= 1 << uint(i>>3)
		}
	}
	return m
}

// sparseBlock builds a random block whose nonzero coefficients are confined
// to the rows of mask (each live row gets at least one nonzero).
func sparseBlock(rng *rand.Rand, mask uint8) [64]int32 {
	var b [64]int32
	for r := 0; r < 8; r++ {
		if mask&(1<<uint(r)) == 0 {
			continue
		}
		n := 1 + rng.Intn(8)
		for k := 0; k < n; k++ {
			c := rng.Intn(8)
			v := int32(rng.Intn(4095) - 2047)
			if v == 0 {
				v = 1
			}
			b[r*8+c] = v
		}
	}
	return b
}

// TestInverseSparseMatchesDense drives InverseSparse across every row-mask
// shape — including the dcOnly and rowMask==1 short-circuits — and demands
// byte-identical output to the dense Inverse.
func TestInverseSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for mask := 0; mask < 256; mask++ {
		for trial := 0; trial < 20; trial++ {
			b := sparseBlock(rng, uint8(mask))
			dense := b
			Inverse(&dense)

			sparse := b
			rm := trueRowMask(&b)
			dcOnly := rm&^1 == 0 && b[1]|b[2]|b[3]|b[4]|b[5]|b[6]|b[7] == 0
			InverseSparse(&sparse, rm, dcOnly)
			if sparse != dense {
				t.Fatalf("mask %02x trial %d: sparse != dense\nin:     %v\nsparse: %v\ndense:  %v",
					mask, trial, b, sparse, dense)
			}
		}
	}
}

// TestInverseSparseConservativeMask verifies the contract that extra set
// bits in rowMask (a superset of the live rows) never change the output.
func TestInverseSparseConservativeMask(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		b := sparseBlock(rng, uint8(rng.Intn(256)))
		dense := b
		Inverse(&dense)

		sparse := b
		super := trueRowMask(&b) | uint8(rng.Intn(256))
		InverseSparse(&sparse, super, false)
		if sparse != dense {
			t.Fatalf("trial %d: superset mask changed output", trial)
		}
	}
}

// TestInverseSparseDCOnly pins the DC short-circuit to the dense transform
// over the full DC range, including saturating values.
func TestInverseSparseDCOnly(t *testing.T) {
	for dc := int32(-2048); dc <= 2047; dc++ {
		var dense, sparse [64]int32
		dense[0], sparse[0] = dc, dc
		Inverse(&dense)
		InverseSparse(&sparse, 1, true)
		if sparse != dense {
			t.Fatalf("dc %d: sparse %d != dense %d", dc, sparse[0], dense[0])
		}
	}
}

// benchIDCT transforms 64 blocks of the mask's shape in place, in turn
// (see retired); the shortcuts cost the same whatever the block holds.
func benchIDCT(b *testing.B, mask uint8, dcOnly bool) {
	rng := rand.New(rand.NewSource(3))
	blocks := make([][64]int32, 64)
	for i := range blocks {
		blocks[i] = sparseBlock(rng, mask)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		InverseSparse(&blocks[i&63], mask, dcOnly)
	}
}

func BenchmarkIDCTSparse(b *testing.B) {
	b.Run("dc-only", func(b *testing.B) { benchIDCT(b, 1, true) })
	b.Run("row0", func(b *testing.B) { benchIDCT(b, 1, false) })
	b.Run("rows0-1", func(b *testing.B) { benchIDCT(b, 3, false) })
}

func BenchmarkIDCTDense(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	blocks := make([][64]int32, 64)
	for i := range blocks {
		blocks[i] = sparseBlock(rng, 0xFF)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Inverse(&blocks[i&63])
	}
}
