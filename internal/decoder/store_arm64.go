package decoder

// haveStoreAsm reports that this architecture carries assembly store
// kernels (NEON, architecturally mandatory on AArch64).
const haveStoreAsm = true

// storeIntraBlockAsm clamps 8 rows of 8 int32 IDCT outputs to [0,255]
// and stores them at dst with rowStride bytes between rows.
//
//go:noescape
func storeIntraBlockAsm(dst *byte, rowStride int, blk *int32)

// storePredBlockAsm adds 8 rows of 8 int32 residuals to the prediction
// rows at dst (rowStride apart) and stores the clamped sums over them:
// each row is loaded before it is stored.
//
//go:noescape
func storePredBlockAsm(dst *byte, rowStride int, blk *int32)
