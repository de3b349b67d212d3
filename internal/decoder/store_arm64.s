// NEON clamped block-store kernels. The Go arm64 assembler lacks signed
// vector min/max and signed shifts, so the [0,255] clamp of a signed
// 32-bit lane is synthesised in the unsigned domain: add the bias
// 0x80000000 (wrapping — matching Go's int32 addition), clamp with
// unsigned VUMAX/VUMIN against bias and bias+255, subtract the bias, and
// narrow twice with same-register VUZP1 (exact: values now fit a byte).
//
// Register plan: V8 = bias in every dword lane, V9 = bias+255.

#include "textflag.h"

// func storeIntraBlockAsm(dst *byte, rowStride int, blk *int32)
TEXT ·storeIntraBlockAsm(SB), NOSPLIT, $0-24
	MOVD dst+0(FP), R0
	MOVD rowStride+8(FP), R1
	MOVD blk+16(FP), R2
	MOVD $8, R5

	MOVD $0x80000000, R6
	VDUP R6, V8.S4
	MOVD $0x800000FF, R6
	VDUP R6, V9.S4

intraRow:
	VLD1.P 32(R2), [V0.S4, V1.S4]
	VADD   V8.S4, V0.S4, V0.S4
	VADD   V8.S4, V1.S4, V1.S4
	VUMAX  V8.S4, V0.S4, V0.S4
	VUMAX  V8.S4, V1.S4, V1.S4
	VUMIN  V9.S4, V0.S4, V0.S4
	VUMIN  V9.S4, V1.S4, V1.S4
	VSUB   V8.S4, V0.S4, V0.S4
	VSUB   V8.S4, V1.S4, V1.S4
	VUZP1  V1.H8, V0.H8, V0.H8  // even halfwords: 8 lane values
	VUZP1  V0.B16, V0.B16, V0.B16
	VST1   [V0.B8], (R0)
	ADD    R1, R0
	SUBS   $1, R5
	BNE    intraRow
	RET

// func storePredBlockAsm(dst *byte, rowStride int, blk *int32)
//
// Each prediction row is loaded from dst before the sum is stored over it.
TEXT ·storePredBlockAsm(SB), NOSPLIT, $0-24
	MOVD dst+0(FP), R0
	MOVD rowStride+8(FP), R1
	MOVD blk+16(FP), R2
	MOVD $8, R5

	MOVD $0x80000000, R6
	VDUP R6, V8.S4
	MOVD $0x800000FF, R6
	VDUP R6, V9.S4

predRow:
	VLD1.P  32(R2), [V0.S4, V1.S4]
	VLD1    (R0), [V2.B8]
	VUSHLL  $0, V2.B8, V2.H8
	VUSHLL  $0, V2.H4, V3.S4
	VUSHLL2 $0, V2.H8, V4.S4
	VADD    V3.S4, V0.S4, V0.S4 // residual + prediction (wrapping, like Go)
	VADD    V4.S4, V1.S4, V1.S4
	VADD    V8.S4, V0.S4, V0.S4
	VADD    V8.S4, V1.S4, V1.S4
	VUMAX   V8.S4, V0.S4, V0.S4
	VUMAX   V8.S4, V1.S4, V1.S4
	VUMIN   V9.S4, V0.S4, V0.S4
	VUMIN   V9.S4, V1.S4, V1.S4
	VSUB    V8.S4, V0.S4, V0.S4
	VSUB    V8.S4, V1.S4, V1.S4
	VUZP1   V1.H8, V0.H8, V0.H8
	VUZP1   V0.B16, V0.B16, V0.B16
	VST1    [V0.B8], (R0)
	ADD     R1, R0
	SUBS    $1, R5
	BNE     predRow
	RET
