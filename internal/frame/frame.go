// Package frame provides YCbCr 4:2:0 picture buffers, a counting frame
// pool (the memory-requirements experiments need byte-level accounting),
// PSNR measurement, scaling, and a deterministic synthetic video source
// standing in for the paper's flower-garden test clip.
package frame

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Frame is one decoded or source picture in planar YCbCr 4:2:0.
//
// The coded dimensions are the display dimensions rounded up to whole
// macroblocks (16×16); planes are allocated at coded size so slice and
// motion-compensation code never needs edge special cases for the last
// macroblock row/column. Chroma planes are coded-size/2 in each dimension.
type Frame struct {
	Width, Height  int // display size in pixels
	CodedW, CodedH int // coded size, multiples of 16
	// Row strides of the planes. YStride ≥ CodedW and CStride ≥ CodedW/2;
	// they exceed the coded width when the layout pads rows to break
	// cache-set aliasing (see PadStrides). Bytes between CodedW and the
	// stride are slack: never read by reconstruction, undefined after pool
	// reuse, and ignored by Equal.
	YStride, CStride int
	Y, Cb, Cr        []uint8
	TemporalRef      int // display order within its GOP
	DisplayIndex     int // absolute display order within the sequence
	PictureType      byte

	rc int32 // reference count (used by the parallel decoders' pools)
}

// Retain adds n to the frame's reference count. The count starts at zero;
// owners that share a frame between consumers (display queue, prediction
// references) retain once per consumer and Release when done.
func (f *Frame) Retain(n int32) { atomic.AddInt32(&f.rc, n) }

// Release decrements the reference count and reports whether it reached
// zero (the frame may then be recycled).
func (f *Frame) Release() bool { return atomic.AddInt32(&f.rc, -1) <= 0 }

// RefCount returns the current reference count (for tests and accounting).
func (f *Frame) RefCount() int32 { return atomic.LoadInt32(&f.rc) }

// Coded rounds n up to a multiple of 16.
func Coded(n int) int { return (n + 15) &^ 15 }

// PadStrides enables the row-padded plane layout adopted by the cache
// locality study (see DESIGN.md): when a plane's width is a multiple of
// 512 bytes, vertically adjacent rows alias to the same cache sets in the
// power-of-two-indexed caches the paper's SMP hosts used, and the column
// walks of motion compensation and the IDCT thrash those sets. Padding
// each such row by one 64-byte line spreads consecutive rows across sets.
// Widths that are not 512-multiples are left dense — padding them costs
// memory and cachesim showed no benefit.
var PadStrides = true

// planeStride returns the row stride for a plane of width w bytes under
// the current layout policy.
func planeStride(w int) int {
	if PadStrides && w >= 512 && w%512 == 0 {
		return w + 64
	}
	return w
}

// New allocates a frame for a width×height picture.
func New(width, height int) *Frame {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("frame: invalid size %dx%d", width, height))
	}
	cw, ch := Coded(width), Coded(height)
	ys, cs := planeStride(cw), planeStride(cw/2)
	return &Frame{
		Width:   width,
		Height:  height,
		CodedW:  cw,
		CodedH:  ch,
		YStride: ys,
		CStride: cs,
		Y:       make([]uint8, ys*ch),
		Cb:      make([]uint8, cs*ch/2),
		Cr:      make([]uint8, cs*ch/2),
	}
}

// Bytes returns the total plane storage of the frame in bytes.
func (f *Frame) Bytes() int { return len(f.Y) + len(f.Cb) + len(f.Cr) }

// Clone returns a deep copy of the frame with a zero reference count.
// Fields are copied individually — a whole-struct copy would race with
// concurrent atomic Retain/Release on the reference count.
func (f *Frame) Clone() *Frame {
	return &Frame{
		Width:        f.Width,
		Height:       f.Height,
		CodedW:       f.CodedW,
		CodedH:       f.CodedH,
		YStride:      f.YStride,
		CStride:      f.CStride,
		TemporalRef:  f.TemporalRef,
		DisplayIndex: f.DisplayIndex,
		PictureType:  f.PictureType,
		Y:            append([]uint8(nil), f.Y...),
		Cb:           append([]uint8(nil), f.Cb...),
		Cr:           append([]uint8(nil), f.Cr...),
	}
}

// Equal reports whether two frames have identical display dimensions and
// pixel data over the coded area. Row slack beyond CodedW (present under
// padded layouts) is ignored: it is never written by reconstruction and
// holds stale bytes after pool reuse.
func (f *Frame) Equal(g *Frame) bool {
	if f.Width != g.Width || f.Height != g.Height || f.CodedW != g.CodedW || f.CodedH != g.CodedH {
		return false
	}
	return planeEqual(f.Y, g.Y, f.YStride, g.YStride, f.CodedW, f.CodedH) &&
		planeEqual(f.Cb, g.Cb, f.CStride, g.CStride, f.CodedW/2, f.CodedH/2) &&
		planeEqual(f.Cr, g.Cr, f.CStride, g.CStride, f.CodedW/2, f.CodedH/2)
}

func planeEqual(a, b []uint8, aStride, bStride, w, h int) bool {
	for y := 0; y < h; y++ {
		ra := a[y*aStride : y*aStride+w]
		rb := b[y*bStride : y*bStride+w]
		for x := range ra {
			if ra[x] != rb[x] {
				return false
			}
		}
	}
	return true
}

// Fill sets every sample of all three planes to v (mid-grey 128 is the
// error-concealment background when no reference picture exists).
func (f *Frame) Fill(v uint8) {
	for _, pl := range [][]uint8{f.Y, f.Cb, f.Cr} {
		if len(pl) == 0 {
			continue
		}
		pl[0] = v
		for n := 1; n < len(pl); n *= 2 {
			copy(pl[n:], pl[:n])
		}
	}
}

// CopyPixelsFrom copies src's coded-area pixels into f when the coded
// geometries match, reporting whether the copy happened. Whole-picture
// substitution under error resilience uses this to repeat a reference
// frame. The row-wise copy tolerates differing strides.
func (f *Frame) CopyPixelsFrom(src *Frame) bool {
	if src == nil || src.CodedW != f.CodedW || src.CodedH != f.CodedH {
		return false
	}
	copyPlane(f.Y, src.Y, f.YStride, src.YStride, f.CodedW, f.CodedH)
	copyPlane(f.Cb, src.Cb, f.CStride, src.CStride, f.CodedW/2, f.CodedH/2)
	copyPlane(f.Cr, src.Cr, f.CStride, src.CStride, f.CodedW/2, f.CodedH/2)
	return true
}

func copyPlane(dst, src []uint8, dStride, sStride, w, h int) {
	if dStride == sStride && len(dst) == len(src) {
		copy(dst, src)
		return
	}
	for y := 0; y < h; y++ {
		copy(dst[y*dStride:y*dStride+w], src[y*sStride:y*sStride+w])
	}
}

// PSNR returns the luma peak signal-to-noise ratio between two frames of
// identical display size, in dB. Identical frames return +Inf.
func PSNR(a, b *Frame) float64 {
	if a.Width != b.Width || a.Height != b.Height {
		return 0
	}
	var se float64
	for y := 0; y < a.Height; y++ {
		ra := a.Y[y*a.YStride : y*a.YStride+a.Width]
		rb := b.Y[y*b.YStride : y*b.YStride+b.Width]
		for x := range ra {
			d := float64(int(ra[x]) - int(rb[x]))
			se += d * d
		}
	}
	if se == 0 {
		return math.Inf(1)
	}
	mse := se / float64(a.Width*a.Height)
	return 10 * math.Log10(255*255/mse)
}

// Scale returns the frame bilinearly resampled to dstW×dstH (the paper
// built its larger test streams by interpolating the base clip the same
// way).
func (f *Frame) Scale(dstW, dstH int) *Frame {
	g := New(dstW, dstH)
	scalePlane(f.Y, f.YStride, f.Width, f.Height, g.Y, g.YStride, g.Width, g.Height)
	scalePlane(f.Cb, f.CStride, f.Width/2, f.Height/2, g.Cb, g.CStride, g.Width/2, g.Height/2)
	scalePlane(f.Cr, f.CStride, f.Width/2, f.Height/2, g.Cr, g.CStride, g.Width/2, g.Height/2)
	g.padEdges()
	return g
}

func scalePlane(src []uint8, srcStride, srcW, srcH int, dst []uint8, dstStride, dstW, dstH int) {
	if srcW < 1 || srcH < 1 {
		return
	}
	for y := 0; y < dstH; y++ {
		sy := float64(y) * float64(srcH-1) / float64(max(dstH-1, 1))
		y0 := int(sy)
		fy := sy - float64(y0)
		y1 := min(y0+1, srcH-1)
		for x := 0; x < dstW; x++ {
			sx := float64(x) * float64(srcW-1) / float64(max(dstW-1, 1))
			x0 := int(sx)
			fx := sx - float64(x0)
			x1 := min(x0+1, srcW-1)
			p00 := float64(src[y0*srcStride+x0])
			p01 := float64(src[y0*srcStride+x1])
			p10 := float64(src[y1*srcStride+x0])
			p11 := float64(src[y1*srcStride+x1])
			v := p00*(1-fy)*(1-fx) + p01*(1-fy)*fx + p10*fy*(1-fx) + p11*fy*fx
			dst[y*dstStride+x] = uint8(v + 0.5)
		}
	}
}

// Pad replicates the last display row/column into the coded margin so
// that motion search and DCT over partial macroblocks see sensible data.
// It is idempotent.
func (f *Frame) Pad() { f.padEdges() }

// padEdges replicates the last display row/column into the coded margin so
// that motion search and DCT over partial macroblocks see sensible data.
func (f *Frame) padEdges() {
	padPlane(f.Y, f.YStride, f.Width, f.Height, f.CodedH)
	padPlane(f.Cb, f.CStride, f.Width/2, f.Height/2, f.CodedH/2)
	padPlane(f.Cr, f.CStride, f.Width/2, f.Height/2, f.CodedH/2)
}

func padPlane(p []uint8, stride, w, h, codedH int) {
	if w < 1 || h < 1 {
		return
	}
	for y := 0; y < h; y++ {
		row := p[y*stride:]
		for x := w; x < stride; x++ {
			row[x] = row[w-1]
		}
	}
	for y := h; y < codedH; y++ {
		copy(p[y*stride:(y+1)*stride], p[(h-1)*stride:h*stride])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
