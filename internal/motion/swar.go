package motion

import "encoding/binary"

// SWAR (SIMD-within-a-register) pixel kernels: the half-pel interpolation
// and bidirectional-average inner loops process eight pixels per uint64
// instead of one byte at a time. All kernels are bit-exact against the
// scalar reference paths (the equivalence tests in swar_test.go sweep
// every byte pair and every half-pel phase), so flipping scalarKernels
// must never change a single output pixel.

// scalarKernels forces the byte-at-a-time reference paths in place of the
// SWAR kernels. The kernel level sets it: true at kernels.LevelScalar,
// false on every other tier.
var scalarKernels = false

const (
	swarByteHi = 0x8080808080808080 // high bit of each byte lane
	swarByteLo = 0x0101010101010101 // low bit of each byte lane
	swarHalfLo = 0x00FF00FF00FF00FF // even byte lanes, widened to 16 bits
)

// avg2u64 returns the per-byte rounded average (a+b+1)>>1 of eight packed
// pixels, using the identity avg_ceil(a,b) = (a|b) - ((a^b)>>1). The
// masked shift keeps lane bits from leaking, and the subtraction cannot
// borrow across lanes because per byte (a|b) >= (a^b)>>1.
func avg2u64(a, b uint64) uint64 {
	return (a | b) - (((a ^ b) & ^uint64(swarByteLo)) >> 1)
}

// avg4u64 returns the per-byte rounded average (a+b+c+d+2)>>2 of eight
// packed pixels. The bytes are widened into 16-bit lanes (evens and odds
// separately) so the four-way sum — at most 4*255+2 = 1022 — cannot carry
// between pixels.
func avg4u64(a, b, c, d uint64) uint64 {
	const two = 0x0002000200020002
	e := (a&swarHalfLo + b&swarHalfLo + c&swarHalfLo + d&swarHalfLo + two) >> 2 & swarHalfLo
	o := (a>>8&swarHalfLo + b>>8&swarHalfLo + c>>8&swarHalfLo + d>>8&swarHalfLo + two) >> 2 & swarHalfLo
	return e | o<<8
}

// predictBlockSWAR interpolates a w×h block whose sample region is known
// to lie fully inside the reference plane (the caller hoists that edge
// check out), with w a multiple of 8. src is the plane at the integer
// sample origin.
//
// The w==16 (luma) and w==8 (chroma) bodies are fully unrolled with
// constant-index row slices so the compiler drops the per-load bounds
// checks; the offsets walk down the planes instead of re-slicing per
// element. Motion compensation is the biggest share of P/B reconstruction,
// so this loop shape is worth its verbosity.
func predictBlockSWAR(dst []uint8, dstStride int, src []uint8, srcStride, w, h, hx, hy int) {
	le := binary.LittleEndian
	so, do := 0, 0
	switch {
	case hx == 0 && hy == 0:
		switch w {
		case 16:
			for y := 0; y < h; y++ {
				r := src[so : so+16]
				d := dst[do : do+16 : do+16]
				le.PutUint64(d[0:8], le.Uint64(r[0:8]))
				le.PutUint64(d[8:16], le.Uint64(r[8:16]))
				so += srcStride
				do += dstStride
			}
		case 8:
			for y := 0; y < h; y++ {
				le.PutUint64(dst[do:do+8:do+8], le.Uint64(src[so:so+8]))
				so += srcStride
				do += dstStride
			}
		default:
			for y := 0; y < h; y++ {
				copy(dst[do:do+w], src[so:])
				so += srcStride
				do += dstStride
			}
		}
	case hx == 1 && hy == 0:
		switch w {
		case 16:
			for y := 0; y < h; y++ {
				r := src[so : so+17]
				d := dst[do : do+16 : do+16]
				le.PutUint64(d[0:8], avg2u64(le.Uint64(r[0:8]), le.Uint64(r[1:9])))
				le.PutUint64(d[8:16], avg2u64(le.Uint64(r[8:16]), le.Uint64(r[9:17])))
				so += srcStride
				do += dstStride
			}
		case 8:
			for y := 0; y < h; y++ {
				r := src[so : so+9]
				le.PutUint64(dst[do:do+8:do+8], avg2u64(le.Uint64(r[0:8]), le.Uint64(r[1:9])))
				so += srcStride
				do += dstStride
			}
		default:
			for y := 0; y < h; y++ {
				r := src[so:]
				d := dst[do:]
				for x := 0; x < w; x += 8 {
					le.PutUint64(d[x:], avg2u64(le.Uint64(r[x:]), le.Uint64(r[x+1:])))
				}
				so += srcStride
				do += dstStride
			}
		}
	case hx == 0 && hy == 1:
		switch w {
		case 16:
			for y := 0; y < h; y++ {
				r0 := src[so : so+16]
				r1 := src[so+srcStride : so+srcStride+16]
				d := dst[do : do+16 : do+16]
				le.PutUint64(d[0:8], avg2u64(le.Uint64(r0[0:8]), le.Uint64(r1[0:8])))
				le.PutUint64(d[8:16], avg2u64(le.Uint64(r0[8:16]), le.Uint64(r1[8:16])))
				so += srcStride
				do += dstStride
			}
		case 8:
			for y := 0; y < h; y++ {
				a := le.Uint64(src[so : so+8])
				b := le.Uint64(src[so+srcStride : so+srcStride+8])
				le.PutUint64(dst[do:do+8:do+8], avg2u64(a, b))
				so += srcStride
				do += dstStride
			}
		default:
			for y := 0; y < h; y++ {
				r0 := src[so:]
				r1 := src[so+srcStride:]
				d := dst[do:]
				for x := 0; x < w; x += 8 {
					le.PutUint64(d[x:], avg2u64(le.Uint64(r0[x:]), le.Uint64(r1[x:])))
				}
				so += srcStride
				do += dstStride
			}
		}
	default:
		switch w {
		case 16:
			for y := 0; y < h; y++ {
				r0 := src[so : so+17]
				r1 := src[so+srcStride : so+srcStride+17]
				d := dst[do : do+16 : do+16]
				le.PutUint64(d[0:8], avg4u64(le.Uint64(r0[0:8]), le.Uint64(r0[1:9]),
					le.Uint64(r1[0:8]), le.Uint64(r1[1:9])))
				le.PutUint64(d[8:16], avg4u64(le.Uint64(r0[8:16]), le.Uint64(r0[9:17]),
					le.Uint64(r1[8:16]), le.Uint64(r1[9:17])))
				so += srcStride
				do += dstStride
			}
		case 8:
			for y := 0; y < h; y++ {
				r0 := src[so : so+9]
				r1 := src[so+srcStride : so+srcStride+9]
				le.PutUint64(dst[do:do+8:do+8], avg4u64(le.Uint64(r0[0:8]), le.Uint64(r0[1:9]),
					le.Uint64(r1[0:8]), le.Uint64(r1[1:9])))
				so += srcStride
				do += dstStride
			}
		default:
			for y := 0; y < h; y++ {
				r0 := src[so:]
				r1 := src[so+srcStride:]
				d := dst[do:]
				for x := 0; x < w; x += 8 {
					le.PutUint64(d[x:], avg4u64(le.Uint64(r0[x:]), le.Uint64(r0[x+1:]),
						le.Uint64(r1[x:]), le.Uint64(r1[x+1:])))
				}
				so += srcStride
				do += dstStride
			}
		}
	}
}

// avgBytes8 averages the n-byte buffers a and b into dst (n a multiple of
// 8) with MPEG rounding, eight pixels per step.
func avgBytes8(dst, a, b []uint8, n int) {
	for i := 0; i < n; i += 8 {
		va := binary.LittleEndian.Uint64(a[i:])
		vb := binary.LittleEndian.Uint64(b[i:])
		binary.LittleEndian.PutUint64(dst[i:], avg2u64(va, vb))
	}
}

// avgRows8 averages h rows of w bytes (16 or 8) of src into the matching
// rows of dst in place with MPEG rounding, eight pixels per step; the row
// bodies are unrolled over constant-index slices like predictBlockSWAR's.
func avgRows8(dst []uint8, dstStride int, src []uint8, srcStride, w, h int) {
	le := binary.LittleEndian
	do, so := 0, 0
	for y := 0; y < h; y++ {
		if w == 16 {
			d, s := dst[do:do+16:do+16], src[so:so+16]
			le.PutUint64(d[0:8], avg2u64(le.Uint64(d[0:8]), le.Uint64(s[0:8])))
			le.PutUint64(d[8:16], avg2u64(le.Uint64(d[8:16]), le.Uint64(s[8:16])))
		} else {
			d := dst[do : do+8 : do+8]
			le.PutUint64(d, avg2u64(le.Uint64(d), le.Uint64(src[so:so+8])))
		}
		do += dstStride
		so += srcStride
	}
}
