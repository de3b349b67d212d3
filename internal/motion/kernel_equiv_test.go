package motion

import (
	"bytes"
	"fmt"
	"testing"

	"mpeg2par/internal/frame"
	"mpeg2par/internal/kernels"
)

// xorshift PRNG so the sweep is deterministic without a seed flag.
type prng uint64

func (p *prng) next() uint64 {
	x := uint64(*p)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*p = prng(x)
	return x
}

func (p *prng) fill(b []uint8) {
	for i := range b {
		b[i] = uint8(p.next())
	}
}

// scalarPredictOracle is an independent reference implementation of the
// half-pel prediction, written in the most literal style possible so the
// optimized kernels are checked against the spec, not against each other.
func scalarPredictOracle(dst []uint8, dstStride int, ref []uint8, refStride, src, w, h, hx, hy int) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			a := int(ref[src+y*refStride+x])
			b := int(ref[src+y*refStride+x+hx])
			c := int(ref[src+(y+hy)*refStride+x])
			d := int(ref[src+(y+hy)*refStride+x+hx])
			// (a+b+c+d+2)>>2 is exact for every phase: with hx=hy=0 all
			// four samples coincide so it reduces to a; with one half-pel
			// axis the pairs double up and it reduces to (a+b+1)>>1.
			dst[y*dstStride+x] = uint8((a + b + c + d + 2) >> 2)
		}
	}
}

// kernelTiers returns the tiers runnable on this host, restoring the
// dispatch state afterwards.
func kernelTiers(t *testing.T) []kernels.Level {
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

// TestPredictBlockTierEquivalence sweeps every half-pel phase, both block
// widths, multiple heights and strides, and random content, checking each
// kernel tier bit-exactly against the literal oracle.
func TestPredictBlockTierEquivalence(t *testing.T) {
	tiers := kernelTiers(t)
	rng := prng(0x9e3779b97f4a7c15)

	const refStride = 37 // odd stride: catches any alignment assumption
	ref := make([]uint8, refStride*40)

	for _, tier := range tiers {
		kernels.Set(tier)
		for _, w := range []int{8, 16} {
			for _, h := range []int{4, 8, 16} {
				for hy := 0; hy <= 1; hy++ {
					for hx := 0; hx <= 1; hx++ {
						for trial := 0; trial < 8; trial++ {
							rng.fill(ref)
							src := int(rng.next()%8)*refStride + int(rng.next()%8)
							dstStride := w + int(rng.next()%5)
							want := make([]uint8, dstStride*h)
							got := make([]uint8, dstStride*h)
							scalarPredictOracle(want, dstStride, ref, refStride, src, w, h, hx, hy)

							// Drive through the public entry so the
							// dispatch path under test is the real one.
							px := src % refStride
							py := src / refStride
							PredictBlock(got, dstStride, ref, refStride, refStride, 40,
								px, py, hx, hy, w, h)

							for i := range want {
								if i%dstStride < w && got[i] != want[i] {
									t.Fatalf("tier=%v w=%d h=%d hx=%d hy=%d trial=%d: dst[%d]=%d want %d",
										tier, w, h, hx, hy, trial, i, got[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestPredictBlockExtremes pins the saturation corners (all-0, all-255,
// alternating) where rounding or carry bugs in the byte-average identity
// would surface.
func TestPredictBlockExtremes(t *testing.T) {
	tiers := kernelTiers(t)
	const refStride = 24
	patterns := map[string]func(i int) uint8{
		"zero":  func(i int) uint8 { return 0 },
		"max":   func(i int) uint8 { return 255 },
		"alt":   func(i int) uint8 { return uint8(255 * (i & 1)) },
		"ramp":  func(i int) uint8 { return uint8(i) },
		"edges": func(i int) uint8 { return uint8(254 + i&1) },
	}
	for name, pat := range patterns {
		ref := make([]uint8, refStride*20)
		for i := range ref {
			ref[i] = pat(i)
		}
		for _, tier := range tiers {
			kernels.Set(tier)
			for hy := 0; hy <= 1; hy++ {
				for hx := 0; hx <= 1; hx++ {
					for _, w := range []int{8, 16} {
						h := w
						want := make([]uint8, w*h)
						got := make([]uint8, w*h)
						scalarPredictOracle(want, w, ref, refStride, refStride+1, w, h, hx, hy)
						PredictBlock(got, w, ref, refStride, refStride, 20, 1, 1, hx, hy, w, h)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("pattern=%s tier=%v w=%d hx=%d hy=%d: dst[%d]=%d want %d",
									name, tier, w, hx, hy, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestAverageMBTierEquivalence checks the bidirectional average across
// tiers, including the aliased dst==a case the decoder uses.
func TestAverageMBTierEquivalence(t *testing.T) {
	tiers := kernelTiers(t)
	rng := prng(0x123456789abcdef)

	for trial := 0; trial < 16; trial++ {
		var a, b MBPred
		rng.fill(a.Y[:])
		rng.fill(a.Cb[:])
		rng.fill(a.Cr[:])
		rng.fill(b.Y[:])
		rng.fill(b.Cb[:])
		rng.fill(b.Cr[:])
		if trial == 0 { // saturation corner
			for i := range a.Y {
				a.Y[i], b.Y[i] = 255, 254
			}
		}

		var want MBPred
		for i := range want.Y {
			want.Y[i] = uint8((int(a.Y[i]) + int(b.Y[i]) + 1) >> 1)
		}
		for i := range want.Cb {
			want.Cb[i] = uint8((int(a.Cb[i]) + int(b.Cb[i]) + 1) >> 1)
			want.Cr[i] = uint8((int(a.Cr[i]) + int(b.Cr[i]) + 1) >> 1)
		}

		for _, tier := range tiers {
			kernels.Set(tier)
			var got MBPred
			ga, gb := a, b
			AverageMB(&got, &ga, &gb)
			if got != want {
				t.Fatalf("tier=%v trial=%d: AverageMB mismatch", tier, trial)
			}
			// Aliased form: dst == a.
			AverageMB(&ga, &ga, &gb)
			if ga != want {
				t.Fatalf("tier=%v trial=%d: aliased AverageMB mismatch", tier, trial)
			}
		}
	}
}

// viewFrame returns a w×h frame whose rows are padded by ypad (luma) and
// cpad (chroma) bytes, every byte — padding included — set to fill.
func viewFrame(w, h, ypad, cpad int, fill uint8) *frame.Frame {
	f := &frame.Frame{Width: w, Height: h, CodedW: w, CodedH: h, YStride: w + ypad, CStride: w/2 + cpad}
	f.Y = make([]uint8, f.YStride*h)
	f.Cb = make([]uint8, f.CStride*h/2)
	f.Cr = make([]uint8, f.CStride*h/2)
	for _, p := range [][]uint8{f.Y, f.Cb, f.Cr} {
		for i := range p {
			p[i] = fill
		}
	}
	return f
}

// placeMB copies pred over macroblock (mbx, mby) of f.
func placeMB(f *frame.Frame, pred *MBPred, mbx, mby int) {
	for r := 0; r < 16; r++ {
		copy(f.Y[(mby*16+r)*f.YStride+mbx*16:][:16], pred.Y[r*16:])
	}
	for r := 0; r < 8; r++ {
		o := (mby*8+r)*f.CStride + mbx*8
		copy(f.Cb[o:o+8], pred.Cb[r*8:])
		copy(f.Cr[o:o+8], pred.Cr[r*8:])
	}
}

func samePlanes(a, b *frame.Frame) bool {
	return bytes.Equal(a.Y, b.Y) && bytes.Equal(a.Cb, b.Cb) && bytes.Equal(a.Cr, b.Cr)
}

// averageInto returns a copy of f whose macroblock (mbx, mby) is the
// rounded average of what f holds there and pred (AverageMB).
func averageInto(f *frame.Frame, pred *MBPred, mbx, mby int) *frame.Frame {
	var held, avg MBPred
	y, c := mbOffsets(f, mbx, mby)
	for r := 0; r < 16; r++ {
		copy(held.Y[r*16:r*16+16], f.Y[y+r*f.YStride:])
	}
	for r := 0; r < 8; r++ {
		copy(held.Cb[r*8:r*8+8], f.Cb[c+r*f.CStride:])
		copy(held.Cr[r*8:r*8+8], f.Cr[c+r*f.CStride:])
	}
	AverageMB(&avg, &held, pred)
	g := cloneFrame(f)
	placeMB(g, &avg, mbx, mby)
	return g
}

func cloneFrame(f *frame.Frame) *frame.Frame {
	g := *f
	g.Y, g.Cb, g.Cr = bytes.Clone(f.Y), bytes.Clone(f.Cb), bytes.Clone(f.Cr)
	return &g
}

// TestPredictMBIntoTierEquivalence checks, at every kernel tier, that
// predicting straight into a frame-shaped destination writes what the
// scalar tier's PredictMB / PredictMBField write into an MBPred, there and
// nowhere else (the rest of the destination, row padding included, keeps
// a sentinel), and that with avg set it writes the scalar AverageMB of
// what the frame held (random content) and that prediction: every
// macroblock of a 3×3 picture, so each picture edge clamps, vectors in
// all four half-pel phases from far outside the picture to far outside it
// on the other side, frame prediction and field prediction with every
// pair of field selects, dense and padded strides on either side.
func TestPredictMBIntoTierEquivalence(t *testing.T) {
	tiers := kernelTiers(t)
	rng := prng(0x5bd1e995cafef00d)
	comps := []int{-70, -3, -2, -1, 0, 1, 2, 3, 70}
	for _, pad := range [][2]int{{0, 0}, {13, 5}} {
		ref := viewFrame(48, 48, pad[1], pad[0], 0)
		rng.fill(ref.Y)
		rng.fill(ref.Cb)
		rng.fill(ref.Cr)
		held := viewFrame(48, 48, pad[0], pad[1], 0)
		for mb := 0; mb < 9; mb++ {
			mbx, mby := mb%3, mb/3
			for _, x := range comps {
				for _, y := range comps {
					mv := MV{X: x, Y: y}
					mv2 := MV{X: comps[rng.next()%9], Y: comps[rng.next()%9]}
					rng.fill(held.Y)
					rng.fill(held.Cb)
					rng.fill(held.Cr)
					// The references, from the scalar tier.
					kernels.Set(kernels.LevelScalar)
					var pred MBPred
					PredictMB(&pred, ref, mbx, mby, mv)
					want := viewFrame(48, 48, pad[0], pad[1], 0xA5)
					placeMB(want, &pred, mbx, mby)
					wantAvg := averageInto(held, &pred, mbx, mby)
					var fieldWant, fieldAvg [4]*frame.Frame
					for s := range fieldWant {
						PredictMBField(&pred, ref, mbx, mby, [2]bool{s&1 != 0, s&2 != 0}, mv, mv2)
						fieldWant[s] = viewFrame(48, 48, pad[0], pad[1], 0xA5)
						placeMB(fieldWant[s], &pred, mbx, mby)
						fieldAvg[s] = averageInto(held, &pred, mbx, mby)
					}
					for _, tier := range tiers {
						kernels.Set(tier)
						for _, avg := range []bool{false, true} {
							got, w := viewFrame(48, 48, pad[0], pad[1], 0xA5), want
							if avg {
								got, w = cloneFrame(held), wantAvg
							}
							PredictMBInto(got, ref, mbx, mby, mv, avg)
							if !samePlanes(w, got) {
								t.Fatalf("tier=%v pad=%v mb=(%d,%d) mv=%v avg=%v: frame prediction into the frame differs from the scalar tier's", tier, pad, mbx, mby, mv, avg)
							}
							for s := range fieldWant {
								sel := [2]bool{s&1 != 0, s&2 != 0}
								got, w = viewFrame(48, 48, pad[0], pad[1], 0xA5), fieldWant[s]
								if avg {
									got, w = cloneFrame(held), fieldAvg[s]
								}
								PredictMBFieldInto(got, ref, mbx, mby, sel, mv, mv2, avg)
								if !samePlanes(w, got) {
									t.Fatalf("tier=%v pad=%v mb=(%d,%d) sel=%v mv=%v/%v avg=%v: field prediction into the frame differs from the scalar tier's", tier, pad, mbx, mby, sel, mv, mv2, avg)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestPredictMBIntoAverageBytes checks the average of a bidirectional
// prediction (PredictMBInto with avg) against AverageMB at every tier:
// random macroblocks at every position of a padded frame, and every one
// of the 65536 byte pairs through both the 16-byte luma rows and the
// 8-byte chroma rows. The prediction is the zero vector from a reference
// holding b, so it is b itself.
func TestPredictMBIntoAverageBytes(t *testing.T) {
	tiers := kernelTiers(t)
	rng := prng(0xdeadbeef12345)
	check := func(tier kernels.Level, a, b *MBPred, mbx, mby int, what string) {
		t.Helper()
		var avg MBPred
		AverageMB(&avg, a, b)
		want := viewFrame(48, 32, 9, 3, 0x5A)
		placeMB(want, &avg, mbx, mby)
		ref := viewFrame(48, 32, 5, 7, 0x33)
		placeMB(ref, b, mbx, mby)
		got := viewFrame(48, 32, 9, 3, 0x5A)
		placeMB(got, a, mbx, mby)
		PredictMBInto(got, ref, mbx, mby, Zero, true)
		if !samePlanes(want, got) {
			t.Fatalf("tier=%v mb=(%d,%d) %s: averaged prediction differs from AverageMB", tier, mbx, mby, what)
		}
	}
	for _, tier := range tiers {
		kernels.Set(tier)
		var a, b MBPred
		for trial := 0; trial < 24; trial++ {
			for _, p := range [][]uint8{a.Y[:], a.Cb[:], a.Cr[:], b.Y[:], b.Cb[:], b.Cr[:]} {
				rng.fill(p)
			}
			check(tier, &a, &b, trial%3, trial/3%2, "random")
		}
		for v := 0; v < 256; v++ {
			for i := range a.Y {
				a.Y[i], b.Y[i] = uint8(v), uint8(i)
			}
			for i := range a.Cb { // 64 of the 256 partners per pass: v and v+k*64 cover the rest
				a.Cb[i], b.Cb[i] = uint8(v), uint8(i+64*(v%4))
				a.Cr[i], b.Cr[i] = uint8(v), uint8(i+64*((v+1)%4))
			}
			check(tier, &a, &b, 1, 1, fmt.Sprintf("byte %d against all", v))
		}
	}
}

// predictGeometry is one of FuzzPredictMB's frame shapes: an SD frame's
// strides, odd strides, and a one-macroblock picture too small for a
// half-pel sample region (predictBlockClamped's replication).
func predictGeometry(g uint8) (w, h, ypad, cpad int) {
	switch g % 3 {
	case 0:
		return 704, 64, 0, 0
	case 1:
		return 48, 48, 13, 5
	}
	return 16, 16, 1, 3
}

// FuzzPredictMB holds every tier's one-call prediction to the scalar
// tier's: a forward prediction into the frame, then a backward one
// averaged into it (one bidirectional macroblock), frame or field
// prediction with any selects, any macroblock of the picture, any vectors
// — far outside the picture included, where the origin clamps — and
// PredictMB / PredictMBField into an MBPred beside them. The seeds cover
// all 16 forward/backward phase pairs on each frame shape, frame and field.
func FuzzPredictMB(f *testing.F) {
	for g := uint8(0); g < 3; g++ {
		for ph := 0; ph < 16; ph++ {
			fx, fy, bx, by := int16(ph&1), int16(ph>>1&1), int16(ph>>2&1), int16(ph>>3)
			f.Add(uint64(ph+1), g, uint8(ph), uint8(ph/4), fx-4, fy+2, bx+6, by-8, int16(3), int16(-5), uint8(ph&7))
		}
	}
	f.Add(uint64(99), uint8(0), uint8(43), uint8(3), int16(-2000), int16(1999), int16(511), int16(-512), int16(1023), int16(-1024), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, geom, mbx, mby uint8, fx, fy, bx, by, x2, y2 int16, flags uint8) {
		w, h, ypad, cpad := predictGeometry(geom)
		rng := prng(seed | 1)
		refF, refB := viewFrame(w, h, ypad, cpad, 0), viewFrame(w, h, cpad, ypad, 0)
		held := viewFrame(w, h, ypad, cpad, 0)
		for _, p := range [][]uint8{refF.Y, refF.Cb, refF.Cr, refB.Y, refB.Cb, refB.Cr, held.Y, held.Cb, held.Cr} {
			rng.fill(p)
		}
		x, y := int(mbx)%(w/16), int(mby)%(h/16)
		fwd, bwd, mv2 := MV{X: int(fx), Y: int(fy)}, MV{X: int(bx), Y: int(by)}, MV{X: int(x2), Y: int(y2)}
		field, sel := flags&1 != 0, [2]bool{flags&2 != 0, flags&4 != 0}
		run := func(l kernels.Level) (*frame.Frame, MBPred) {
			kernels.Set(l)
			dst := cloneFrame(held)
			var pred MBPred
			if field {
				PredictMBFieldInto(dst, refF, x, y, sel, fwd, mv2, false)
				PredictMBFieldInto(dst, refB, x, y, sel, bwd, mv2, true)
				PredictMBField(&pred, refB, x, y, sel, bwd, mv2)
			} else {
				PredictMBInto(dst, refF, x, y, fwd, false)
				PredictMBInto(dst, refB, x, y, bwd, true)
				PredictMB(&pred, refB, x, y, bwd)
			}
			return dst, pred
		}
		tiers := kernelTiers(t)
		want, wantPred := run(kernels.LevelScalar)
		for _, l := range tiers[1:] {
			got, gotPred := run(l)
			if !samePlanes(want, got) || gotPred != wantPred {
				t.Fatalf("tier %v differs from scalar: %dx%d mb (%d,%d) field %v sel %v vectors %v %v %v", l, w, h, x, y, field, sel, fwd, bwd, mv2)
			}
		}
	})
}

// BenchmarkPredictBlock measures each tier on the 16×16 luma diagonal
// case (the most expensive phase).
func BenchmarkPredictBlock(b *testing.B) {
	prev := kernels.Active()
	b.Cleanup(func() { kernels.Set(prev) })
	const refStride = 720
	ref := make([]uint8, refStride*64)
	rng := prng(7)
	rng.fill(ref)
	dst := make([]uint8, 16*16)

	tiers := []kernels.Level{kernels.LevelScalar, kernels.LevelSWAR}
	if kernels.Supported() == kernels.LevelASM {
		tiers = append(tiers, kernels.LevelASM)
	}
	for _, tier := range tiers {
		for _, phase := range []struct{ hx, hy int }{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
			kernels.Set(tier)
			b.Run(fmt.Sprintf("%v/hx%d_hy%d", tier, phase.hx, phase.hy), func(b *testing.B) {
				b.SetBytes(16 * 16)
				for i := 0; i < b.N; i++ {
					PredictBlock(dst, 16, ref, refStride, refStride, 64, 8, 8, phase.hx, phase.hy, 16, 16)
				}
			})
		}
	}
}

// BenchmarkAverageMBTiers measures the bidirectional average across tiers.
func BenchmarkAverageMBTiers(b *testing.B) {
	prev := kernels.Active()
	b.Cleanup(func() { kernels.Set(prev) })
	var dst, x, y MBPred
	rng := prng(11)
	rng.fill(x.Y[:])
	rng.fill(y.Y[:])

	tiers := []kernels.Level{kernels.LevelScalar, kernels.LevelSWAR}
	if kernels.Supported() == kernels.LevelASM {
		tiers = append(tiers, kernels.LevelASM)
	}
	for _, tier := range tiers {
		kernels.Set(tier)
		b.Run(tier.String(), func(b *testing.B) {
			b.SetBytes(384)
			for i := 0; i < b.N; i++ {
				AverageMB(&dst, &x, &y)
			}
		})
	}
}

// BenchmarkPredictMBBidir measures one bidirectional macroblock of an SD
// frame per op, across tiers: a forward prediction into the frame and a
// backward one averaged into it, each direction's half-pel phase cycling
// through all four, so the 16 phase pairs take equal turns.
func BenchmarkPredictMBBidir(b *testing.B) {
	prev := kernels.Active()
	b.Cleanup(func() { kernels.Set(prev) })
	dst, refF, refB := frame.New(704, 64), frame.New(704, 64), frame.New(704, 64)
	rng := prng(13)
	for _, p := range [][]uint8{refF.Y, refF.Cb, refF.Cr, refB.Y, refB.Cb, refB.Cr} {
		rng.fill(p)
	}
	tiers := []kernels.Level{kernels.LevelScalar, kernels.LevelSWAR}
	if kernels.Supported() == kernels.LevelASM {
		tiers = append(tiers, kernels.LevelASM)
	}
	for _, tier := range tiers {
		kernels.Set(tier)
		b.Run(tier.String(), func(b *testing.B) {
			b.SetBytes(384)
			for i := 0; i < b.N; i++ {
				PredictMBInto(dst, refF, i%44, 1, MV{X: 6 + i&1, Y: -4 + i>>1&1}, false)
				PredictMBInto(dst, refB, i%44, 1, MV{X: -9 + i>>2&1, Y: 3 + i>>3&1}, true)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/MB")
		})
	}
}
