package motion

// haveAsm reports that this build carries assembly kernels (AVX2). The
// dispatch layer additionally requires runtime CPU support via
// internal/kernels before routing to them.
const haveAsm = true

// The per-plane prediction kernels fill an h-row block of width w from
// src, both walked by their strides; w is 16 here (8 or 16 on arm64).
// Horizontal variants read w+1 bytes per row, vertical variants read h+1
// rows; the Go wrapper anchors those bounds before the call.
//
//go:noescape
func predictCopyAsm(dst, src *byte, dstStride, srcStride, w, h int)

//go:noescape
func predictHAsm(dst, src *byte, dstStride, srcStride, w, h int)

//go:noescape
func predictVAsm(dst, src *byte, dstStride, srcStride, w, h int)

//go:noescape
func predictHVAsm(dst, src *byte, dstStride, srcStride, w, h int)

// avgBytesAsm writes the MPEG rounded average (a+b+1)>>1 of n bytes into
// dst; n must be a positive multiple of 8. dst may alias a or b.
//
//go:noescape
func avgBytesAsm(dst, a, b *byte, n int)

// mbAsm reports that the asm tier predicts a whole macroblock in one call
// (predictMBAsm) instead of composing it from the per-plane kernels.
const mbAsm = true

// predictMBAsm writes one direction's prediction of a macroblock (h = 16)
// or of one of its fields (h = 8): h rows of 16 luma bytes from sY, h/2
// rows of 8 bytes of each chroma plane from sCb and sCr, the sources at
// their sample origins. ySel and cSel are each plane's half-pel phase,
// plus 4 to average the prediction into what the destination holds
// instead of storing it. predict anchors the bounds before the call.
//
//go:noescape
func predictMBAsm(dY, dCb, dCr, sY, sCb, sCr *byte, dys, dcs, ys, cs, h, ySel, cSel int)

// avgRowsAsm is the arm64 tier's; amd64's asm tier averages inside
// predictMBAsm (averageRows never calls this).
func avgRowsAsm(dst, src *byte, dstStride, srcStride, w, h int) {
	panic("motion: no row-average kernel on amd64")
}
