package motion

// haveAsm reports that this build carries assembly kernels (AVX2). The
// dispatch layer additionally requires runtime CPU support via
// internal/kernels before routing to them.
const haveAsm = true

// The prediction kernels fill an h-row block of width w (8 or 16) from
// src, both walked by their strides. Horizontal variants read w+1 bytes
// per row, vertical variants read h+1 rows; the Go wrapper anchors those
// bounds before the call.
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

// avgRowsAsm sets each of the h rows of dst (w bytes, 8 or 16, dstStride
// apart) to the MPEG rounded average of itself and the matching row of
// src (srcStride apart): dst is read and written in place. The rows of
// dst must not overlap each other or src.
//
//go:noescape
func avgRowsAsm(dst, src *byte, dstStride, srcStride, w, h int)
