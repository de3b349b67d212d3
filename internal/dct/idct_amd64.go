package dct

// haveIDCTAsm reports that this architecture carries the vectorized IDCT
// (AVX2; the dispatch layer only selects LevelASM after runtime CPU
// detection).
const haveIDCTAsm = true

// idctAsm computes the same transform as Inverse — Wang's fast integer
// IDCT with 11 fractional row bits and clamp9 column outputs — with each
// pass vectorized across the block's eight rows/columns. It is bit-exact
// with the scalar code for every block whose coefficients fit int16,
// which the [-2048, 2047] saturation of dequantization guarantees: the
// row pass multiplies 16-bit coefficient pairs. The scalar row DC
// shortcut it omits is an identity ((x<<11+128)>>8 == x<<3), not an
// approximation.
//
//go:noescape
func idctAsm(blk *[64]int32)

// ReconBlock turns one coded block into pixels in one call, on the asm
// tier (AVX2, which kernels.LevelASM implies on amd64): it dequantizes the
// quantized levels qf (raster order) with d, inverse-transforms them and
// writes eight rows of eight pixels at dst, stride bytes apart — clamped
// to [0, 255] for an intra block, or with add set added to the
// prediction already there and clamped, every prediction byte read before
// its row is written. qf is read, never written, and nothing but the 64
// pixels is.
//
// The pixels are bit-exact with quant.InverseMasked (given qf's exact
// nonzero mask), Inverse and clampPixel in turn, mismatch control
// included, for every qf whose levels lie in [-2047, 2047]: the VLD
// rejects the escape level -2048 and bounds an intra DC to [0, 2047].
// Rows must not overlap (stride ≥ 8).
//
//go:noescape
func ReconBlock(dst *byte, stride int, qf *[64]int32, d *Dequant, add bool)
