//go:build !arm64

package decoder

// haveStoreAsm is false on architectures without assembly store kernels
// (amd64's asm tier reconstructs a coded block in one dct.ReconBlock
// call); the dispatch layer never routes here, so the stubs are
// unreachable.
const haveStoreAsm = false

func storeIntraBlockAsm(dst *byte, rowStride int, blk *int32) {
	panic("decoder: no assembly store kernels on this architecture")
}

func storePredBlockAsm(dst *byte, rowStride int, blk *int32) {
	panic("decoder: no assembly store kernels on this architecture")
}
