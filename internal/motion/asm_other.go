//go:build !amd64 && !arm64

package motion

// haveAsm is false on architectures without assembly kernels; the
// dispatch layer never routes here, so the stubs are unreachable.
const haveAsm = false

func predictCopyAsm(dst, src *byte, dstStride, srcStride, w, h int) {
	panic("motion: no assembly kernels on this architecture")
}

func predictHAsm(dst, src *byte, dstStride, srcStride, w, h int) {
	panic("motion: no assembly kernels on this architecture")
}

func predictVAsm(dst, src *byte, dstStride, srcStride, w, h int) {
	panic("motion: no assembly kernels on this architecture")
}

func predictHVAsm(dst, src *byte, dstStride, srcStride, w, h int) {
	panic("motion: no assembly kernels on this architecture")
}

func avgBytesAsm(dst, a, b *byte, n int) {
	panic("motion: no assembly kernels on this architecture")
}

func avgRowsAsm(dst, src *byte, dstStride, srcStride, w, h int) {
	panic("motion: no assembly kernels on this architecture")
}
