package decoder

// haveStoreAsm reports that this architecture carries assembly store
// kernels (AVX2; the dispatch layer only selects LevelASM after runtime
// CPU detection).
const haveStoreAsm = true

// storeIntraBlockAsm clamps 8 rows of 8 int32 IDCT outputs to [0,255]
// and stores them at dst with rowStride bytes between rows.
//
// Contract (shared with the arm64 version): residuals must lie in
// [-32768, 32512] — far wider than the IDCT output range [-256, 255] the
// decoder produces, but narrower than full int32, where the saturating
// 16-bit pack would diverge from Go's wrapping int32 arithmetic.
//
//go:noescape
func storeIntraBlockAsm(dst *byte, rowStride int, blk *int32)

// storePredBlockAsm adds 8 rows of 8 int32 residuals to the prediction
// rows (pstride apart) and stores the clamped sums at dst. Same residual
// contract as storeIntraBlockAsm.
//
// pred may alias dst with equal strides — the decoder's in-place residual
// add: the kernel loads every prediction row before it stores the
// destination row of the same index, and rows do not overlap.
//
//go:noescape
func storePredBlockAsm(dst *byte, rowStride int, pred *byte, pstride int, blk *int32)
