package decoder

// haveStoreAsm reports that this architecture carries assembly store
// kernels (NEON, architecturally mandatory on AArch64).
const haveStoreAsm = true

// See store_amd64.go for the kernel contracts, including that pred may
// alias dst with equal strides (each row is loaded before it is stored).
//
//go:noescape
func storeIntraBlockAsm(dst *byte, rowStride int, blk *int32)

//go:noescape
func storePredBlockAsm(dst *byte, rowStride int, pred *byte, pstride int, blk *int32)
