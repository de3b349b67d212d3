// Package motion implements MPEG-2 frame-picture motion compensation with
// half-pel interpolation (ISO/IEC 13818-2 §7.6) and the encoder-side
// motion estimation (predictive diamond search with half-pel refinement).
package motion

import "mpeg2par/internal/frame"

// MV is a motion vector in half-pel units (luma scale).
type MV struct {
	X, Y int
}

// Zero is the zero motion vector.
var Zero = MV{}

// ChromaMV returns the vector applied to 4:2:0 chroma: the luma vector
// divided by two, truncating toward zero (§7.6.3.7).
func (v MV) ChromaMV() MV {
	return MV{X: divTrunc2(v.X), Y: divTrunc2(v.Y)}
}

func divTrunc2(v int) int {
	if v < 0 {
		return -(-v / 2)
	}
	return v / 2
}

// MBPred holds the prediction samples for one macroblock: a 16×16 luma
// block and two 8×8 chroma blocks.
type MBPred struct {
	Y      [256]uint8
	Cb, Cr [64]uint8
}

// sampleOrigin resolves where a w×h block at pixel position (px, py)
// displaced by the half-pel vector (mvx, mvy) samples a refW×refH plane
// whose rows are stride apart: the offset of the integer sample origin
// and the half-pel phase hx | hy<<1. Out-of-range displacements are
// clamped so that the sample region (w+hx)×(h+hy) stays inside the plane;
// conforming encoders never produce them, so this only defends against
// corrupt input. off is -1 on a degenerate plane narrower than the
// sample region, which only predictBlockClamped can serve.
func sampleOrigin(stride, refW, refH, px, py, mvx, mvy, w, h int) (off, phase int) {
	hx, hy := mvx&1, mvy&1
	if refW < w+hx || refH < h+hy {
		return -1, 0
	}
	ix := min(max(px+(mvx>>1), 0), refW-w-hx)
	iy := min(max(py+(mvy>>1), 0), refH-h-hy)
	return iy*stride + ix, hx | hy<<1
}

// interpolate fills the w×h block dst from src, the reference plane at
// the sample origin, through the active tier's kernel for the half-pel
// phase hx | hy<<1. The edge check happened once in sampleOrigin, not per
// pixel: the (w+hx)×(h+hy) region at src lies inside the plane.
func interpolate(dst []uint8, dstStride int, src []uint8, srcStride, w, h, phase int) {
	if ScalarKernels || w&7 != 0 {
		predictBlockScalar(dst, dstStride, src, srcStride, w, h, phase&1, phase>>1)
		return
	}
	if !asmKernels || (w != 16 && w != 8) {
		predictBlockSWAR(dst, dstStride, src, srcStride, w, h, phase&1, phase>>1)
		return
	}
	// Anchor the bounds the assembly relies on: h rows (+1 for vertical
	// interpolation) of w (+1 for horizontal) samples from the source,
	// h rows of w into the destination.
	_ = src[(h+phase>>1-1)*srcStride+w+phase&1-1]
	_ = dst[(h-1)*dstStride+w-1]
	switch phase {
	case 0:
		predictCopyAsm(&dst[0], &src[0], dstStride, srcStride, w, h)
	case 1:
		predictHAsm(&dst[0], &src[0], dstStride, srcStride, w, h)
	case 2:
		predictVAsm(&dst[0], &src[0], dstStride, srcStride, w, h)
	default:
		predictHVAsm(&dst[0], &src[0], dstStride, srcStride, w, h)
	}
}

// PredictBlock fills a w×h destination block (dst with stride dstStride)
// from the reference plane, sampling at pixel position (px, py) displaced
// by the half-pel vector (mvx, mvy), clamped to the plane (sampleOrigin).
func PredictBlock(dst []uint8, dstStride int, ref []uint8, refStride, refW, refH int, px, py, mvx, mvy, w, h int) {
	off, phase := sampleOrigin(refStride, refW, refH, px, py, mvx, mvy, w, h)
	if off < 0 {
		predictBlockClamped(dst, dstStride, ref, refStride, refW, refH, px, py, mvx, mvy, w, h)
		return
	}
	interpolate(dst, dstStride, ref[off:], refStride, w, h, phase)
}

// predict is the one macroblock-prediction implementation, behind every
// PredictMB* entry point. Its destination is a view, not a buffer: dY,
// dCb and dCr are three planes from the macroblock's first sample on,
// their rows dys and dcs apart — an MBPred (strides 16 and 8), or the
// frame under reconstruction at that macroblock, where a predicted pixel
// is then written once and stays.
//
// With field false it predicts macroblock (mbx, mby) from ref with the
// half-pel vector mv: 16×16 luma, 8×8 of each chroma plane. With field
// true it predicts only the macroblock's lines of parity rv from the
// lines of parity sel of ref, mv's vertical component in field lines
// (§7.6.3.1): the same planes entered one line down, strides doubled,
// half as high, a 16×8 block at field line mby*8. The clamp, phase and
// source offset are resolved once for luma and once for the two chroma
// planes, which share the 4:2:0 vector; the destination is written over
// exactly those blocks and nowhere else.
func predict(dY, dCb, dCr []uint8, dys, dcs int, ref *frame.Frame, mbx, mby int, mv MV, field bool, rv, sel int) {
	h, shift, rY, rC := 16, 0, 0, 0
	if field {
		h, shift = 8, 1
		dY, dCb, dCr = dY[rv*dys:], dCb[rv*dcs:], dCr[rv*dcs:]
		rY, rC = sel*ref.YStride, sel*ref.CStride
	}
	dys <<= shift
	rs, rw, rh := ref.YStride<<shift, ref.CodedW, ref.CodedH>>shift
	if off, phase := sampleOrigin(rs, rw, rh, mbx*16, mby*h, mv.X, mv.Y, 16, h); off >= 0 {
		interpolate(dY, dys, ref.Y[rY+off:], rs, 16, h, phase)
	} else {
		predictBlockClamped(dY, dys, ref.Y[rY:], rs, rw, rh, mbx*16, mby*h, mv.X, mv.Y, 16, h)
	}

	c := mv.ChromaMV()
	h /= 2
	dcs <<= shift
	rs, cw, ch := ref.CStride<<shift, rw/2, rh/2
	off, phase := sampleOrigin(rs, cw, ch, mbx*8, mby*h, c.X, c.Y, 8, h)
	if off < 0 {
		predictBlockClamped(dCb, dcs, ref.Cb[rC:], rs, cw, ch, mbx*8, mby*h, c.X, c.Y, 8, h)
		predictBlockClamped(dCr, dcs, ref.Cr[rC:], rs, cw, ch, mbx*8, mby*h, c.X, c.Y, 8, h)
		return
	}
	interpolate(dCb, dcs, ref.Cb[rC+off:], rs, 8, h, phase)
	interpolate(dCr, dcs, ref.Cr[rC+off:], rs, 8, h, phase)
}

// predictInto runs predict with macroblock (mbx, mby) of dst itself as
// the destination.
func predictInto(dst, ref *frame.Frame, mbx, mby int, mv MV, field bool, rv, sel int) {
	y, c := mbOffsets(dst, mbx, mby)
	predict(dst.Y[y:], dst.Cb[c:], dst.Cr[c:], dst.YStride, dst.CStride, ref, mbx, mby, mv, field, rv, sel)
}

// mbOffsets returns where macroblock (mbx, mby) starts in the luma plane
// and in either chroma plane of f.
func mbOffsets(f *frame.Frame, mbx, mby int) (y, c int) {
	return mby*16*f.YStride + mbx*16, mby*8*f.CStride + mbx*8
}

// predictBlockScalar is the byte-at-a-time reference interpolation, the
// scalar tier; src is the plane at the integer sample origin.
func predictBlockScalar(dst []uint8, dstStride int, src []uint8, srcStride, w, h, hx, hy int) {
	switch {
	case hx == 0 && hy == 0:
		for y := 0; y < h; y++ {
			copy(dst[y*dstStride:y*dstStride+w], src[y*srcStride:])
		}
	case hx == 1 && hy == 0:
		for y := 0; y < h; y++ {
			r := src[y*srcStride:]
			d := dst[y*dstStride:]
			for x := 0; x < w; x++ {
				d[x] = uint8((int(r[x]) + int(r[x+1]) + 1) >> 1)
			}
		}
	case hx == 0 && hy == 1:
		for y := 0; y < h; y++ {
			r0 := src[y*srcStride:]
			r1 := src[(y+1)*srcStride:]
			d := dst[y*dstStride:]
			for x := 0; x < w; x++ {
				d[x] = uint8((int(r0[x]) + int(r1[x]) + 1) >> 1)
			}
		}
	default:
		for y := 0; y < h; y++ {
			r0 := src[y*srcStride:]
			r1 := src[(y+1)*srcStride:]
			d := dst[y*dstStride:]
			for x := 0; x < w; x++ {
				d[x] = uint8((int(r0[x]) + int(r0[x+1]) + int(r1[x]) + int(r1[x+1]) + 2) >> 2)
			}
		}
	}
}

// predictBlockClamped is the defensive slow path for planes smaller than
// the (w+hx)×(h+hy) sample region: every sample coordinate is clamped to
// the plane edge (replication), so no vector or geometry can read out of
// bounds.
func predictBlockClamped(dst []uint8, dstStride int, ref []uint8, refStride, refW, refH, px, py, mvx, mvy, w, h int) {
	hx, hy := mvx&1, mvy&1
	ix := clamp(px+(mvx>>1), 0, refW-w-hx)
	iy := clamp(py+(mvy>>1), 0, refH-h-hy)
	sample := func(yy, xx int) int {
		if xx >= refW {
			xx = refW - 1
		}
		if yy >= refH {
			yy = refH - 1
		}
		return int(ref[yy*refStride+xx])
	}
	for y := 0; y < h; y++ {
		d := dst[y*dstStride:]
		for x := 0; x < w; x++ {
			s := sample(iy+y, ix+x)
			switch {
			case hx == 1 && hy == 1:
				s = (s + sample(iy+y, ix+x+1) + sample(iy+y+1, ix+x) + sample(iy+y+1, ix+x+1) + 2) >> 2
			case hx == 1:
				s = (s + sample(iy+y, ix+x+1) + 1) >> 1
			case hy == 1:
				s = (s + sample(iy+y+1, ix+x) + 1) >> 1
			}
			d[x] = uint8(s)
		}
	}
}

// PredictMBInto predicts the macroblock at (mbx, mby) (macroblock
// coordinates) from ref with the half-pel luma vector mv straight into
// that macroblock of dst, the frame under reconstruction.
func PredictMBInto(dst, ref *frame.Frame, mbx, mby int, mv MV) {
	predictInto(dst, ref, mbx, mby, mv, false, 0, 0)
}

// PredictMB fills pred from ref for the macroblock at (mbx, mby)
// (macroblock coordinates) using the half-pel luma vector mv.
func PredictMB(pred *MBPred, ref *frame.Frame, mbx, mby int, mv MV) {
	predict(pred.Y[:], pred.Cb[:], pred.Cr[:], 16, 8, ref, mbx, mby, mv, false, 0, 0)
}

// AverageMB sets dst to the rounded average of a and b — bidirectional
// prediction (§7.6.7.1). The SWAR path fuses the whole macroblock into
// 48 eight-pixel averages; dst may alias a or b.
func AverageMB(dst, a, b *MBPred) {
	if ScalarKernels {
		for i := range dst.Y {
			dst.Y[i] = uint8((int(a.Y[i]) + int(b.Y[i]) + 1) >> 1)
		}
		for i := range dst.Cb {
			dst.Cb[i] = uint8((int(a.Cb[i]) + int(b.Cb[i]) + 1) >> 1)
			dst.Cr[i] = uint8((int(a.Cr[i]) + int(b.Cr[i]) + 1) >> 1)
		}
		return
	}
	if asmKernels {
		avgBytesAsm(&dst.Y[0], &a.Y[0], &b.Y[0], len(dst.Y))
		avgBytesAsm(&dst.Cb[0], &a.Cb[0], &b.Cb[0], len(dst.Cb))
		avgBytesAsm(&dst.Cr[0], &a.Cr[0], &b.Cr[0], len(dst.Cr))
		return
	}
	avgBytes8(dst.Y[:], a.Y[:], b.Y[:], len(dst.Y))
	avgBytes8(dst.Cb[:], a.Cb[:], b.Cb[:], len(dst.Cb))
	avgBytes8(dst.Cr[:], a.Cr[:], b.Cr[:], len(dst.Cr))
}

// AverageMBInto sets macroblock (mbx, mby) of dst to the rounded average
// of what it holds and b: bidirectional prediction (§7.6.7.1) when the
// first prediction was written straight into the frame and the second
// into the scratch b. dst is read and written in place, row by row at its
// strides; the result equals AverageMB of the two predictions.
func AverageMBInto(dst *frame.Frame, mbx, mby int, b *MBPred) {
	y, c := mbOffsets(dst, mbx, mby)
	averageRows(dst.Y[y:], dst.YStride, b.Y[:], 16, 16, 16)
	averageRows(dst.Cb[c:], dst.CStride, b.Cb[:], 8, 8, 8)
	averageRows(dst.Cr[c:], dst.CStride, b.Cr[:], 8, 8, 8)
}

// averageRows sets h rows of w bytes (w 8 or 16) of dst to the rounded
// average of themselves and the matching rows of src, through the active
// tier's kernel.
func averageRows(dst []uint8, dstStride int, src []uint8, srcStride, w, h int) {
	// One bounds check per plane for the rows every tier touches.
	_ = dst[(h-1)*dstStride+w-1]
	_ = src[(h-1)*srcStride+w-1]
	switch {
	case ScalarKernels:
		for y := 0; y < h; y++ {
			d, s := dst[y*dstStride:], src[y*srcStride:]
			for x := 0; x < w; x++ {
				d[x] = uint8((int(d[x]) + int(s[x]) + 1) >> 1)
			}
		}
	case asmKernels:
		avgRowsAsm(&dst[0], &src[0], dstStride, srcStride, w, h)
	default:
		avgRows8(dst, dstStride, src, srcStride, w, h)
	}
}

func clamp(v, lo, hi int) int {
	if hi < lo {
		hi = lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
