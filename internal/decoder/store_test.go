package decoder

import (
	"math/rand"
	"testing"

	"mpeg2par/internal/frame"
	"mpeg2par/internal/motion"
)

// TestClampPixelBranchless checks the branchless clamp against the branchy
// reference over the whole IDCT output range and far beyond it.
func TestClampPixelBranchless(t *testing.T) {
	for v := int32(-70000); v <= 70000; v++ {
		if clampPixel(v) != clampPixelRef(v) {
			t.Fatalf("clampPixel(%d) = %d, want %d", v, clampPixel(v), clampPixelRef(v))
		}
	}
	for _, v := range []int32{-1 << 31, -1<<31 + 1, 1<<31 - 1, 1<<31 - 256} {
		if clampPixel(v) != clampPixelRef(v) {
			t.Fatalf("clampPixel(%d) = %d, want %d", v, clampPixel(v), clampPixelRef(v))
		}
	}
}

// withScalarStore runs f with the per-pixel reference store loops forced.
func withScalarStore(t testing.TB, f func()) {
	t.Helper()
	prev := scalarStore
	scalarStore = true
	defer func() { scalarStore = prev }()
	f()
}

// TestStoreBlocksEquivalence drives storeIntraBlock and storePredBlock
// over random residuals (IDCT-saturated range plus out-of-range extremes),
// all six block positions, frame and field DCT, and compares the unrolled
// branchless kernels against the scalar reference byte for byte.
func TestStoreBlocksEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		var blk [64]int32
		for i := range blk {
			switch iter % 3 {
			case 0: // IDCT-conforming
				blk[i] = int32(rng.Intn(512) - 256)
			case 1: // extreme values: the clamp must still agree
				blk[i] = int32(rng.Intn(200000) - 100000)
			default: // sparse-ish
				if rng.Intn(4) == 0 {
					blk[i] = int32(rng.Intn(512) - 256)
				}
			}
		}
		var pred motion.MBPred
		for i := range pred.Y {
			pred.Y[i] = uint8(rng.Intn(256))
		}
		for i := range pred.Cb {
			pred.Cb[i] = uint8(rng.Intn(256))
			pred.Cr[i] = uint8(rng.Intn(256))
		}
		for _, fieldDCT := range []bool{false, true} {
			for b := 0; b < 6; b++ {
				fast := frame.New(32, 32)
				ref := frame.New(32, 32)
				storeIntraBlock(fast, &blk, 0, 0, b, fieldDCT)
				withScalarStore(t, func() { storeIntraBlock(ref, &blk, 0, 0, b, fieldDCT) })
				if !fast.Equal(ref) {
					t.Fatalf("storeIntraBlock b=%d fieldDCT=%v diverges", b, fieldDCT)
				}
				fast, ref = frame.New(32, 32), frame.New(32, 32)
				placePred(fast, &pred, 1, 1)
				placePred(ref, &pred, 1, 1)
				storePredBlock(fast, &blk, 1, 1, b, fieldDCT)
				withScalarStore(t, func() { storePredBlock(ref, &blk, 1, 1, b, fieldDCT) })
				if !fast.Equal(ref) {
					t.Fatalf("storePredBlock b=%d fieldDCT=%v diverges", b, fieldDCT)
				}
				// An uncoded block is the prediction left alone; the add
				// of a zero residual must leave it alone too.
				var zero [64]int32
				storePredBlock(fast, &zero, 1, 1, b, fieldDCT)
				if !fast.Equal(ref) {
					t.Fatalf("zero-residual storePredBlock b=%d fieldDCT=%v changes the prediction", b, fieldDCT)
				}
			}
		}
	}
}

func BenchmarkStorePredBlock(b *testing.B) {
	var blk [64]int32
	for i := range blk {
		blk[i] = int32((i*37)%512 - 256)
	}
	dst := frame.New(352, 240)
	for i := range dst.Y {
		dst.Y[i] = uint8(i)
	}
	run := func(b *testing.B) {
		b.SetBytes(64)
		for i := 0; i < b.N; i++ {
			storePredBlock(dst, &blk, 5, 5, i%4, false)
		}
	}
	b.Run("branchless", run)
	b.Run("scalar", func(b *testing.B) { withScalarStore(b, func() { run(b) }) })
}

func BenchmarkStoreIntraBlock(b *testing.B) {
	var blk [64]int32
	for i := range blk {
		blk[i] = int32((i * 3) % 256)
	}
	dst := frame.New(352, 240)
	run := func(b *testing.B) {
		b.SetBytes(64)
		for i := 0; i < b.N; i++ {
			storeIntraBlock(dst, &blk, 5, 5, i%4, false)
		}
	}
	b.Run("branchless", run)
	b.Run("scalar", func(b *testing.B) { withScalarStore(b, func() { run(b) }) })
}
