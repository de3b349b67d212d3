package dct

import (
	"testing"

	"mpeg2par/internal/kernels"
)

type idctRNG uint64

func (p *idctRNG) next() uint64 {
	x := uint64(*p)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*p = idctRNG(x)
	return x
}

// scalarInverse is the scalar transform regardless of dispatch level.
func scalarInverse(block *[64]int32) {
	for i := 0; i < 8; i++ {
		idctRow(block[i*8 : i*8+8 : i*8+8])
	}
	for i := 0; i < 8; i++ {
		idctCol(block, i)
	}
}

// TestInverseAsmEquivalence checks the vectorized IDCT bit-exactly
// against the scalar transform across random dense blocks, sparse
// blocks, and the structured corners (DC-only, single-coefficient,
// extreme-amplitude).
func TestInverseAsmEquivalence(t *testing.T) {
	if !haveIDCTAsm || kernels.Supported() != kernels.LevelASM {
		t.Skipf("asm tier not supported on this host (%s)", kernels.CPUFeatures())
	}
	prev := kernels.Active()
	t.Cleanup(func() { kernels.Set(prev) })
	kernels.Set(kernels.LevelASM)
	if !asmIDCT {
		t.Fatal("asmIDCT not enabled at LevelASM")
	}

	rng := idctRNG(0x243f6a8885a308d3)
	check := func(name string, blk *[64]int32) {
		t.Helper()
		want := *blk
		scalarInverse(&want)
		got := *blk
		idctAsm(&got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: block[%d] = %d, want %d", name, i, got[i], want[i])
			}
		}
	}

	// Dense random blocks over the dequantized coefficient range.
	for trial := 0; trial < 200; trial++ {
		var blk [64]int32
		for i := range blk {
			blk[i] = int32(rng.next()%4096) - 2048
		}
		check("dense", &blk)
	}

	// Sparse blocks: realistic post-quantization shapes.
	for trial := 0; trial < 200; trial++ {
		var blk [64]int32
		nz := int(rng.next()%10) + 1
		for k := 0; k < nz; k++ {
			blk[rng.next()%64] = int32(rng.next()%512) - 256
		}
		check("sparse", &blk)
	}

	// Single coefficient at maximum amplitude, every position.
	for pos := 0; pos < 64; pos++ {
		for _, v := range []int32{-2048, 2047, -1, 1} {
			var blk [64]int32
			blk[pos] = v
			check("single", &blk)
		}
	}

	// The edge of the kernel's contract: coefficients anywhere in int16,
	// where the 16-bit row pass is still exact, far past what
	// dequantization lets through.
	for trial := 0; trial < 200; trial++ {
		var blk [64]int32
		for i := range blk {
			blk[i] = int32(int16(rng.next()))
		}
		check("int16", &blk)
	}
	for pos := 0; pos < 64; pos++ {
		for _, v := range []int32{-32768, 32767} {
			var blk [64]int32
			blk[pos] = v
			check("single-int16", &blk)
		}
	}

	// All-zero and all-extreme.
	var zero [64]int32
	check("zero", &zero)
	var extreme [64]int32
	for i := range extreme {
		extreme[i] = 2047
		if i%2 == 1 {
			extreme[i] = -2048
		}
	}
	check("extreme", &extreme)
}

// TestInverseSparseAsmEquivalence drives the public sparse entry point at
// every kernel level and compares against the dense scalar oracle.
func TestInverseSparseAsmEquivalence(t *testing.T) {
	prev := kernels.Active()
	t.Cleanup(func() { kernels.Set(prev) })
	tiers := []kernels.Level{kernels.LevelScalar, kernels.LevelSWAR}
	if kernels.Supported() == kernels.LevelASM {
		tiers = append(tiers, kernels.LevelASM)
	}

	rng := idctRNG(0x452821e638d01377)
	for trial := 0; trial < 100; trial++ {
		var blk [64]int32
		rows := uint8(rng.next())
		for r := 0; r < 8; r++ {
			if rows&(1<<r) == 0 {
				continue
			}
			for c := 0; c < 8; c++ {
				if rng.next()%3 == 0 {
					blk[r*8+c] = int32(rng.next()%512) - 256
				}
			}
		}
		var rowMask uint8
		dcOnly := true
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				if blk[r*8+c] != 0 {
					rowMask |= 1 << r
					if r != 0 || c != 0 {
						dcOnly = false
					}
				}
			}
		}
		if blk[0] == 0 {
			dcOnly = false
		}

		want := blk
		scalarInverse(&want)

		for _, tier := range tiers {
			kernels.Set(tier)
			got := blk
			InverseSparse(&got, rowMask, dcOnly)
			if got != want {
				t.Fatalf("tier=%v trial=%d rowMask=%08b dcOnly=%v: sparse IDCT mismatch", tier, trial, rowMask, dcOnly)
			}
		}
	}
}

// BenchmarkInverseTiers measures the full IDCT per kernel tier on dense
// blocks, transformed in place in turn (see retired).
func BenchmarkInverseTiers(b *testing.B) {
	prev := kernels.Active()
	b.Cleanup(func() { kernels.Set(prev) })
	rng := idctRNG(99)
	var src [64]int32
	for i := range src {
		src[i] = int32(rng.next()%4096) - 2048
	}
	tiers := []kernels.Level{kernels.LevelScalar}
	if kernels.Supported() == kernels.LevelASM {
		tiers = append(tiers, kernels.LevelASM)
	}
	for _, tier := range tiers {
		kernels.Set(tier)
		b.Run(tier.String(), func(b *testing.B) {
			bs := retired(src)
			b.SetBytes(256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Inverse(&bs[i&63])
			}
		})
	}
}
