// AVX2 clamped block-store kernels. Each processes one 8×8 block: two
// rows (16 int32 residuals) per iteration.
//
// Clamp construction: VPACKSSDW saturates int32→int16, VPACKUSWB then
// saturates int16→uint8, which composes to an exact [0,255] clamp for
// any residual that fits int16. The pred path adds the widened
// prediction bytes with a saturating VPADDSW so sums beyond int16 still
// clamp to the correct end. Both packs operate per 128-bit lane, so a
// VPERMQ $0xD8 after the dword pack regroups the qwords row-major.

#include "textflag.h"

// func storeIntraBlockAsm(dst *byte, rowStride int, blk *int32)
TEXT ·storeIntraBlockAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ rowStride+8(FP), DX
	MOVQ blk+16(FP), SI
	MOVQ $4, CX

intraPair:
	VMOVDQU      (SI), Y0    // row r:   8 dwords
	VMOVDQU      32(SI), Y1  // row r+1: 8 dwords
	VPACKSSDW    Y1, Y0, Y0
	VPERMQ       $0xD8, Y0, Y0 // lane0 = row r words, lane1 = row r+1 words
	VPACKUSWB    Y0, Y0, Y0
	MOVQ         X0, (DI)
	VEXTRACTI128 $1, Y0, X1
	ADDQ         DX, DI
	MOVQ         X1, (DI)
	ADDQ         DX, DI
	ADDQ         $64, SI
	DECQ         CX
	JNZ          intraPair
	VZEROUPPER
	RET

// func storePredBlockAsm(dst *byte, rowStride int, pred *byte, pstride int, blk *int32)
//
// Both prediction rows of a pair are loaded before either destination row
// is stored, so pred may be dst itself (equal strides).
TEXT ·storePredBlockAsm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ rowStride+8(FP), DX
	MOVQ pred+16(FP), R8
	MOVQ pstride+24(FP), R9
	MOVQ blk+32(FP), SI
	MOVQ $4, CX

predPair:
	VMOVDQU      (SI), Y0
	VMOVDQU      32(SI), Y1
	VPACKSSDW    Y1, Y0, Y0
	VPERMQ       $0xD8, Y0, Y0     // lane0 = row r words, lane1 = row r+1 words
	VPMOVZXBW    (R8), X2          // pred row r → 8 words
	VPMOVZXBW    (R8)(R9*1), X3    // pred row r+1
	VINSERTI128  $1, X3, Y2, Y2
	VPADDSW      Y2, Y0, Y0
	VPACKUSWB    Y0, Y0, Y0
	MOVQ         X0, (DI)
	VEXTRACTI128 $1, Y0, X1
	ADDQ         DX, DI
	MOVQ         X1, (DI)
	ADDQ         DX, DI
	LEAQ         (R8)(R9*2), R8
	ADDQ         $64, SI
	DECQ         CX
	JNZ          predPair
	VZEROUPPER
	RET
