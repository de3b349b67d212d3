//go:build !amd64 && !arm64

package decoder

// haveStoreAsm is false on architectures without assembly store kernels;
// the dispatch layer never routes here, so the stubs are unreachable.
const haveStoreAsm = false

func storeIntraBlockAsm(dst *byte, rowStride int, blk *int32) {
	panic("decoder: no assembly store kernels on this architecture")
}

// pred may alias dst with equal strides, as on amd64 and arm64.
func storePredBlockAsm(dst *byte, rowStride int, pred *byte, pstride int, blk *int32) {
	panic("decoder: no assembly store kernels on this architecture")
}
