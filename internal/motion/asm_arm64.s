// NEON half-pel motion-compensation kernels. Same layout contract as the
// amd64 versions (see asm_amd64.s): the (w+hx)×(h+hy) source sample
// region lies fully inside the reference plane, dst holds h rows of w
// bytes, w is 8 or 16.
//
// The Go arm64 assembler exposes only part of the NEON ISA, so the
// rounded byte average (a+b+1)>>1 (URHADD in hardware) is synthesised
// from supported ops via the identity
//
//	(a+b+1)>>1 = (a|b) - ((a^b)>>1)
//
// and the diagonal (a+b+c+d+2)>>2 widens to 16-bit lanes (VUSHLL),
// sums, biases, shifts, and narrows back with a same-register VUZP1
// (values are <256 so the even bytes of each halfword are the result).

#include "textflag.h"

// func predictCopyAsm(dst, src *byte, dstStride, srcStride, w, h int)
TEXT ·predictCopyAsm(SB), NOSPLIT, $0-48
	MOVD dst+0(FP), R0
	MOVD src+8(FP), R1
	MOVD dstStride+16(FP), R2
	MOVD srcStride+24(FP), R3
	MOVD w+32(FP), R4
	MOVD h+40(FP), R5
	CMP  $16, R4
	BEQ  copy16

copy8:
	MOVD (R1), R6
	MOVD R6, (R0)
	ADD  R3, R1
	ADD  R2, R0
	SUBS $1, R5
	BNE  copy8
	RET

copy16:
	VLD1 (R1), [V0.B16]
	VST1 [V0.B16], (R0)
	ADD  R3, R1
	ADD  R2, R0
	SUBS $1, R5
	BNE  copy16
	RET

// func predictHAsm(dst, src *byte, dstStride, srcStride, w, h int)
TEXT ·predictHAsm(SB), NOSPLIT, $0-48
	MOVD dst+0(FP), R0
	MOVD src+8(FP), R1
	MOVD dstStride+16(FP), R2
	MOVD srcStride+24(FP), R3
	MOVD w+32(FP), R4
	MOVD h+40(FP), R5
	CMP  $16, R4
	BEQ  h16

h8:
	ADD   $1, R1, R6
	VLD1  (R1), [V0.B8]
	VLD1  (R6), [V1.B8]
	VORR  V1.B16, V0.B16, V2.B16
	VEOR  V1.B16, V0.B16, V3.B16
	VUSHR $1, V3.B16, V3.B16
	VSUB  V3.B16, V2.B16, V2.B16
	VST1  [V2.B8], (R0)
	ADD   R3, R1
	ADD   R2, R0
	SUBS  $1, R5
	BNE   h8
	RET

h16:
	ADD   $1, R1, R6
	VLD1  (R1), [V0.B16]
	VLD1  (R6), [V1.B16]
	VORR  V1.B16, V0.B16, V2.B16
	VEOR  V1.B16, V0.B16, V3.B16
	VUSHR $1, V3.B16, V3.B16
	VSUB  V3.B16, V2.B16, V2.B16
	VST1  [V2.B16], (R0)
	ADD   R3, R1
	ADD   R2, R0
	SUBS  $1, R5
	BNE   h16
	RET

// func predictVAsm(dst, src *byte, dstStride, srcStride, w, h int)
TEXT ·predictVAsm(SB), NOSPLIT, $0-48
	MOVD dst+0(FP), R0
	MOVD src+8(FP), R1
	MOVD dstStride+16(FP), R2
	MOVD srcStride+24(FP), R3
	MOVD w+32(FP), R4
	MOVD h+40(FP), R5
	CMP  $16, R4
	BEQ  v16

v8:
	ADD   R3, R1, R6
	VLD1  (R1), [V0.B8]
	VLD1  (R6), [V1.B8]
	VORR  V1.B16, V0.B16, V2.B16
	VEOR  V1.B16, V0.B16, V3.B16
	VUSHR $1, V3.B16, V3.B16
	VSUB  V3.B16, V2.B16, V2.B16
	VST1  [V2.B8], (R0)
	ADD   R3, R1
	ADD   R2, R0
	SUBS  $1, R5
	BNE   v8
	RET

v16:
	ADD   R3, R1, R6
	VLD1  (R1), [V0.B16]
	VLD1  (R6), [V1.B16]
	VORR  V1.B16, V0.B16, V2.B16
	VEOR  V1.B16, V0.B16, V3.B16
	VUSHR $1, V3.B16, V3.B16
	VSUB  V3.B16, V2.B16, V2.B16
	VST1  [V2.B16], (R0)
	ADD   R3, R1
	ADD   R2, R0
	SUBS  $1, R5
	BNE   v16
	RET

// func predictHVAsm(dst, src *byte, dstStride, srcStride, w, h int)
//
// V8 holds the rounding bias 2 in every 16-bit lane.
TEXT ·predictHVAsm(SB), NOSPLIT, $0-48
	MOVD dst+0(FP), R0
	MOVD src+8(FP), R1
	MOVD dstStride+16(FP), R2
	MOVD srcStride+24(FP), R3
	MOVD w+32(FP), R4
	MOVD h+40(FP), R5

	MOVD $2, R7
	VDUP R7, V8.H8

	CMP $16, R4
	BEQ hv16

hv8:
	ADD    $1, R1, R6
	ADD    R3, R1, R7
	ADD    $1, R7, R9
	VLD1   (R1), [V0.B8]
	VLD1   (R6), [V1.B8]
	VLD1   (R7), [V2.B8]
	VLD1   (R9), [V3.B8]
	VUSHLL $0, V0.B8, V0.H8
	VUSHLL $0, V1.B8, V1.H8
	VUSHLL $0, V2.B8, V2.H8
	VUSHLL $0, V3.B8, V3.H8
	VADD   V1.H8, V0.H8, V0.H8
	VADD   V3.H8, V2.H8, V2.H8
	VADD   V2.H8, V0.H8, V0.H8
	VADD   V8.H8, V0.H8, V0.H8
	VUSHR  $2, V0.H8, V0.H8
	VUZP1  V0.B16, V0.B16, V0.B16
	VST1   [V0.B8], (R0)
	ADD    R3, R1
	ADD    R2, R0
	SUBS   $1, R5
	BNE    hv8
	RET

hv16:
	ADD     $1, R1, R6
	ADD     R3, R1, R7
	ADD     $1, R7, R9
	VLD1    (R1), [V0.B16]
	VLD1    (R6), [V1.B16]
	VLD1    (R7), [V2.B16]
	VLD1    (R9), [V3.B16]

	// Low eight pixels.
	VUSHLL  $0, V0.B8, V4.H8
	VUSHLL  $0, V1.B8, V5.H8
	VUSHLL  $0, V2.B8, V6.H8
	VUSHLL  $0, V3.B8, V7.H8
	VADD    V5.H8, V4.H8, V4.H8
	VADD    V7.H8, V6.H8, V6.H8
	VADD    V6.H8, V4.H8, V4.H8
	VADD    V8.H8, V4.H8, V4.H8
	VUSHR   $2, V4.H8, V4.H8

	// High eight pixels.
	VUSHLL2 $0, V0.B16, V0.H8
	VUSHLL2 $0, V1.B16, V1.H8
	VUSHLL2 $0, V2.B16, V2.H8
	VUSHLL2 $0, V3.B16, V3.H8
	VADD    V1.H8, V0.H8, V0.H8
	VADD    V3.H8, V2.H8, V2.H8
	VADD    V2.H8, V0.H8, V0.H8
	VADD    V8.H8, V0.H8, V0.H8
	VUSHR   $2, V0.H8, V0.H8

	// Merge: even bytes of V4 (pixels 0-7) into the low half, even
	// bytes of V0 (pixels 8-15) into the high half.
	VUZP1   V0.B16, V4.B16, V4.B16
	VST1    [V4.B16], (R0)
	ADD     R3, R1
	ADD     R2, R0
	SUBS    $1, R5
	BNE     hv16
	RET

// func avgBytesAsm(dst, a, b *byte, n int)
TEXT ·avgBytesAsm(SB), NOSPLIT, $0-32
	MOVD dst+0(FP), R0
	MOVD a+8(FP), R1
	MOVD b+16(FP), R2
	MOVD n+24(FP), R3

	CMP $16, R3
	BLT avgTail

avg16:
	VLD1.P 16(R1), [V0.B16]
	VLD1.P 16(R2), [V1.B16]
	VORR   V1.B16, V0.B16, V2.B16
	VEOR   V1.B16, V0.B16, V3.B16
	VUSHR  $1, V3.B16, V3.B16
	VSUB   V3.B16, V2.B16, V2.B16
	VST1.P [V2.B16], 16(R0)
	SUBS   $16, R3
	CMP    $16, R3
	BGE    avg16

avgTail:
	CBZ R3, avgDone

avg8:
	VLD1.P 8(R1), [V0.B8]
	VLD1.P 8(R2), [V1.B8]
	VORR   V1.B16, V0.B16, V2.B16
	VEOR   V1.B16, V0.B16, V3.B16
	VUSHR  $1, V3.B16, V3.B16
	VSUB   V3.B16, V2.B16, V2.B16
	VST1.P [V2.B8], 8(R0)
	SUBS   $8, R3
	BNE    avg8

avgDone:
	RET

// func avgRowsAsm(dst, src *byte, dstStride, srcStride, w, h int)
//
// Strided in-place average (contract in asm_amd64.go): the vertical
// half-pel loop with its second row taken from src and its result stored
// back over the dst row it loaded.
TEXT ·avgRowsAsm(SB), NOSPLIT, $0-48
	MOVD dst+0(FP), R0
	MOVD src+8(FP), R1
	MOVD dstStride+16(FP), R2
	MOVD srcStride+24(FP), R3
	MOVD w+32(FP), R4
	MOVD h+40(FP), R5
	CMP  $16, R4
	BEQ  avgRows16

avgRows8:
	VLD1  (R0), [V0.B8]
	VLD1  (R1), [V1.B8]
	VORR  V1.B16, V0.B16, V2.B16
	VEOR  V1.B16, V0.B16, V3.B16
	VUSHR $1, V3.B16, V3.B16
	VSUB  V3.B16, V2.B16, V2.B16
	VST1  [V2.B8], (R0)
	ADD   R3, R1
	ADD   R2, R0
	SUBS  $1, R5
	BNE   avgRows8
	RET

avgRows16:
	VLD1  (R0), [V0.B16]
	VLD1  (R1), [V1.B16]
	VORR  V1.B16, V0.B16, V2.B16
	VEOR  V1.B16, V0.B16, V3.B16
	VUSHR $1, V3.B16, V3.B16
	VSUB  V3.B16, V2.B16, V2.B16
	VST1  [V2.B16], (R0)
	ADD   R3, R1
	ADD   R2, R0
	SUBS  $1, R5
	BNE   avgRows16
	RET
