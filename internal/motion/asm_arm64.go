package motion

// haveAsm reports that this build carries assembly kernels (NEON). NEON
// is architecturally mandatory on AArch64, so runtime detection always
// enables it.
const haveAsm = true

// See asm_amd64.go for the kernel contracts.
//
//go:noescape
func predictCopyAsm(dst, src *byte, dstStride, srcStride, w, h int)

//go:noescape
func predictHAsm(dst, src *byte, dstStride, srcStride, w, h int)

//go:noescape
func predictVAsm(dst, src *byte, dstStride, srcStride, w, h int)

//go:noescape
func predictHVAsm(dst, src *byte, dstStride, srcStride, w, h int)

//go:noescape
func avgBytesAsm(dst, a, b *byte, n int)

//go:noescape
func avgRowsAsm(dst, src *byte, dstStride, srcStride, w, h int)
