package motion

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"mpeg2par/internal/kernels"
)

// TestAvg2Exhaustive checks the SWAR rounded average against the scalar
// formula for every one of the 65536 byte pairs, replicated across all
// eight lanes so a cross-lane borrow in any position would be caught.
func TestAvg2Exhaustive(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			want := uint8((a + b + 1) >> 1)
			va := uint64(a) * swarByteLo
			vb := uint64(b) * swarByteLo
			got := avg2u64(va, vb)
			if got != uint64(want)*swarByteLo {
				t.Fatalf("avg2(%d,%d) lanes = %016x, want all %02x", a, b, got, want)
			}
		}
	}
}

// TestAvg2LaneIsolation fills each lane with an independent random pair and
// checks every lane separately, so neighbours cannot mask each other.
func TestAvg2LaneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a, b [8]uint8
	for iter := 0; iter < 20000; iter++ {
		for i := range a {
			a[i] = uint8(rng.Intn(256))
			b[i] = uint8(rng.Intn(256))
		}
		got := avg2u64(binary.LittleEndian.Uint64(a[:]), binary.LittleEndian.Uint64(b[:]))
		for i := 0; i < 8; i++ {
			want := uint8((int(a[i]) + int(b[i]) + 1) >> 1)
			if uint8(got>>(8*i)) != want {
				t.Fatalf("lane %d: avg2(%d,%d) = %d, want %d", i, a[i], b[i], uint8(got>>(8*i)), want)
			}
		}
	}
}

// TestAvg4 sweeps the extremes exhaustively (all 4-tuples over a boundary
// value set, where carries live) plus random full-range lanes.
func TestAvg4(t *testing.T) {
	vals := []int{0, 1, 2, 127, 128, 253, 254, 255}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				for _, d := range vals {
					want := uint8((a + b + c + d + 2) >> 2)
					got := avg4u64(uint64(a)*swarByteLo, uint64(b)*swarByteLo, uint64(c)*swarByteLo, uint64(d)*swarByteLo)
					if got != uint64(want)*swarByteLo {
						t.Fatalf("avg4(%d,%d,%d,%d) = %016x, want all %02x", a, b, c, d, got, want)
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(2))
	var a, b, c, d [8]uint8
	for iter := 0; iter < 20000; iter++ {
		for i := 0; i < 8; i++ {
			a[i], b[i] = uint8(rng.Intn(256)), uint8(rng.Intn(256))
			c[i], d[i] = uint8(rng.Intn(256)), uint8(rng.Intn(256))
		}
		got := avg4u64(binary.LittleEndian.Uint64(a[:]), binary.LittleEndian.Uint64(b[:]),
			binary.LittleEndian.Uint64(c[:]), binary.LittleEndian.Uint64(d[:]))
		for i := 0; i < 8; i++ {
			want := uint8((int(a[i]) + int(b[i]) + int(c[i]) + int(d[i]) + 2) >> 2)
			if uint8(got>>(8*i)) != want {
				t.Fatalf("lane %d: avg4(%d,%d,%d,%d) = %d, want %d",
					i, a[i], b[i], c[i], d[i], uint8(got>>(8*i)), want)
			}
		}
	}
}

// withScalarKernels runs f with the scalar reference paths forced on.
func withScalarKernels(t testing.TB, f func()) {
	t.Helper()
	prev := kernels.Active()
	kernels.Set(kernels.LevelScalar)
	defer kernels.Set(prev)
	f()
}

// TestPredictBlockSWAREquivalence sweeps every half-pel phase over every
// position of a noise plane — interior and all four clamped edges — for
// the block shapes the decoder uses (16×16, 16×8 field luma, 8×8 chroma,
// 8×4 field chroma) and requires the SWAR and scalar paths to agree on
// every output byte.
func TestPredictBlockSWAREquivalence(t *testing.T) {
	ref := noiseFrame(64, 48)
	shapes := []struct{ w, h int }{{16, 16}, {16, 8}, {8, 8}, {8, 4}}
	var swar, scalar [256 + 8]uint8
	for _, sh := range shapes {
		for mvy := -3; mvy <= 3; mvy++ {
			for mvx := -3; mvx <= 3; mvx++ {
				for py := -2; py <= ref.CodedH-sh.h+2; py += 5 {
					for px := -2; px <= ref.CodedW-sh.w+2; px += 5 {
						for i := range swar {
							swar[i], scalar[i] = 0xAA, 0xAA
						}
						PredictBlock(swar[:], sh.w, ref.Y, ref.CodedW, ref.CodedW, ref.CodedH,
							px, py, mvx, mvy, sh.w, sh.h)
						withScalarKernels(t, func() {
							PredictBlock(scalar[:], sh.w, ref.Y, ref.CodedW, ref.CodedW, ref.CodedH,
								px, py, mvx, mvy, sh.w, sh.h)
						})
						if swar != scalar {
							t.Fatalf("%dx%d mv=(%d,%d) at (%d,%d): SWAR diverges from scalar",
								sh.w, sh.h, mvx, mvy, px, py)
						}
					}
				}
			}
		}
	}
}

// TestPredictBlockSWARDegeneratePlane: a plane exactly as wide as the
// sample region forces the scalar fallback; both paths must still agree
// (the fallback is the reference for itself, so this pins the dispatch
// condition rather than the arithmetic).
func TestPredictBlockSWARDegeneratePlane(t *testing.T) {
	ref := gradFrame(16, 16) // chroma planes are 8 wide: w+hx overruns
	var swar, scalar [64]uint8
	cw := ref.CodedW / 2
	for mvx := -1; mvx <= 1; mvx++ {
		for mvy := -1; mvy <= 1; mvy++ {
			PredictBlock(swar[:], 8, ref.Cb, cw, cw, ref.CodedH/2, 0, 0, mvx, mvy, 8, 8)
			withScalarKernels(t, func() {
				PredictBlock(scalar[:], 8, ref.Cb, cw, cw, ref.CodedH/2, 0, 0, mvx, mvy, 8, 8)
			})
			if swar != scalar {
				t.Fatalf("mv=(%d,%d): degenerate-plane outputs diverge", mvx, mvy)
			}
		}
	}
}

// TestAverageMBSWAREquivalence compares the fused SWAR bidirectional
// average against the scalar loop on random predictions, including the
// in-place dst==a form the decoder uses.
func TestAverageMBSWAREquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		var a, b MBPred
		for i := range a.Y {
			a.Y[i], b.Y[i] = uint8(rng.Intn(256)), uint8(rng.Intn(256))
		}
		for i := range a.Cb {
			a.Cb[i], b.Cb[i] = uint8(rng.Intn(256)), uint8(rng.Intn(256))
			a.Cr[i], b.Cr[i] = uint8(rng.Intn(256)), uint8(rng.Intn(256))
		}
		var want MBPred
		withScalarKernels(t, func() { AverageMB(&want, &a, &b) })
		var got MBPred
		AverageMB(&got, &a, &b)
		if got != want {
			t.Fatal("AverageMB SWAR diverges from scalar")
		}
		inPlace := a
		AverageMB(&inPlace, &inPlace, &b)
		if inPlace != want {
			t.Fatal("AverageMB in-place SWAR diverges from scalar")
		}
	}
}

// TestPredictMBFieldSWAREquivalence covers the field-prediction strides
// (dstStride 32 luma / 16 chroma) end to end.
func TestPredictMBFieldSWAREquivalence(t *testing.T) {
	ref := noiseFrame(64, 64)
	for mvy := -2; mvy <= 2; mvy++ {
		for mvx := -2; mvx <= 2; mvx++ {
			for _, sel := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				var swar, scalar MBPred
				PredictMBField(&swar, ref, 1, 1, sel, MV{mvx, mvy}, MV{-mvx, -mvy})
				withScalarKernels(t, func() {
					PredictMBField(&scalar, ref, 1, 1, sel, MV{mvx, mvy}, MV{-mvx, -mvy})
				})
				if swar != scalar {
					t.Fatalf("field mv=(%d,%d) sel=%v: SWAR diverges from scalar", mvx, mvy, sel)
				}
			}
		}
	}
}

func benchPredictBlock(b *testing.B, mvx, mvy int) {
	ref := gradFrame(352, 240)
	var dst [256]uint8
	run := func(b *testing.B) {
		b.SetBytes(256)
		for i := 0; i < b.N; i++ {
			PredictBlock(dst[:], 16, ref.Y, ref.CodedW, ref.CodedW, ref.CodedH,
				160, 112, mvx, mvy, 16, 16)
		}
	}
	b.Run("swar", run)
	b.Run("scalar", func(b *testing.B) { withScalarKernels(b, func() { run(b) }) })
}

func BenchmarkPredictBlockFullPel(b *testing.B) { benchPredictBlock(b, 2, 2) }
func BenchmarkPredictBlockHalfH(b *testing.B)   { benchPredictBlock(b, 3, 2) }
func BenchmarkPredictBlockHalfV(b *testing.B)   { benchPredictBlock(b, 2, 3) }
func BenchmarkPredictBlockHalfHV(b *testing.B)  { benchPredictBlock(b, 3, 3) }

func BenchmarkAverageMB(b *testing.B) {
	var a2, b2, d MBPred
	for i := range a2.Y {
		a2.Y[i] = uint8(i)
		b2.Y[i] = uint8(255 - i)
	}
	run := func(b *testing.B) {
		b.SetBytes(int64(len(d.Y) + len(d.Cb) + len(d.Cr)))
		for i := 0; i < b.N; i++ {
			AverageMB(&d, &a2, &b2)
		}
	}
	b.Run("swar", run)
	b.Run("scalar", func(b *testing.B) { withScalarKernels(b, func() { run(b) }) })
}
