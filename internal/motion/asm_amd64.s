// AVX2 half-pel motion-compensation kernels. Layout contract (checked by
// the Go wrappers): the source sample region — (w+hx) columns by (h+hy)
// rows at the given stride — lies fully inside the reference plane, and
// the destination holds h rows of w bytes. w is 8 or 16.
//
// Rounding identities used:
//   half-pel H/V:  (a+b+1)>>1      = VPAVGB
//   diagonal:      (a+b+c+d+2)>>2  = widen to 16-bit, sum, +2, >>2, narrow

#include "textflag.h"

// func predictCopyAsm(dst, src *byte, dstStride, srcStride, w, h int)
TEXT ·predictCopyAsm(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ dstStride+16(FP), DX
	MOVQ srcStride+24(FP), BX
	MOVQ w+32(FP), R8
	MOVQ h+40(FP), CX
	CMPQ R8, $16
	JE   copy16

copy8:
	MOVQ (SI), AX
	MOVQ AX, (DI)
	ADDQ BX, SI
	ADDQ DX, DI
	DECQ CX
	JNZ  copy8
	RET

copy16:
	VMOVDQU (SI), X0
	VMOVDQU X0, (DI)
	ADDQ    BX, SI
	ADDQ    DX, DI
	DECQ    CX
	JNZ     copy16
	RET

// func predictHAsm(dst, src *byte, dstStride, srcStride, w, h int)
TEXT ·predictHAsm(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ dstStride+16(FP), DX
	MOVQ srcStride+24(FP), BX
	MOVQ w+32(FP), R8
	MOVQ h+40(FP), CX
	CMPQ R8, $16
	JE   h16

h8:
	MOVQ   (SI), X0
	MOVQ   1(SI), X1
	VPAVGB X1, X0, X0
	MOVQ   X0, (DI)
	ADDQ   BX, SI
	ADDQ   DX, DI
	DECQ   CX
	JNZ    h8
	RET

h16:
	VMOVDQU (SI), X0
	VMOVDQU 1(SI), X1
	VPAVGB  X1, X0, X0
	VMOVDQU X0, (DI)
	ADDQ    BX, SI
	ADDQ    DX, DI
	DECQ    CX
	JNZ     h16
	RET

// func predictVAsm(dst, src *byte, dstStride, srcStride, w, h int)
TEXT ·predictVAsm(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ dstStride+16(FP), DX
	MOVQ srcStride+24(FP), BX
	MOVQ w+32(FP), R8
	MOVQ h+40(FP), CX
	CMPQ R8, $16
	JE   v16

v8:
	MOVQ   (SI), X0
	MOVQ   (SI)(BX*1), X1
	VPAVGB X1, X0, X0
	MOVQ   X0, (DI)
	ADDQ   BX, SI
	ADDQ   DX, DI
	DECQ   CX
	JNZ    v8
	RET

v16:
	VMOVDQU (SI), X0
	VMOVDQU (SI)(BX*1), X1
	VPAVGB  X1, X0, X0
	VMOVDQU X0, (DI)
	ADDQ    BX, SI
	ADDQ    DX, DI
	DECQ    CX
	JNZ     v16
	RET

// func predictHVAsm(dst, src *byte, dstStride, srcStride, w, h int)
//
// Diagonal interpolation: the four neighbours are widened to 16-bit
// lanes so the sum (at most 4*255+2) cannot carry between pixels, then
// (sum+2)>>2 is narrowed back. The 16-wide body packs per 128-bit lane,
// so a VPERMQ reorders the duplicated qwords into the result row.
TEXT ·predictHVAsm(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ dstStride+16(FP), DX
	MOVQ srcStride+24(FP), BX
	MOVQ w+32(FP), R8
	MOVQ h+40(FP), CX

	// Y4 = 0x0002 in every 16-bit lane (the rounding bias).
	MOVQ         $2, AX
	MOVQ         AX, X4
	VPBROADCASTW X4, Y4

	CMPQ R8, $16
	JE   hv16

hv8:
	VPMOVZXBW (SI), X0
	VPMOVZXBW 1(SI), X1
	VPMOVZXBW (SI)(BX*1), X2
	VPMOVZXBW 1(SI)(BX*1), X3
	VPADDW    X1, X0, X0
	VPADDW    X3, X2, X2
	VPADDW    X2, X0, X0
	VPADDW    X4, X0, X0
	VPSRLW    $2, X0, X0
	VPACKUSWB X0, X0, X0
	MOVQ      X0, (DI)
	ADDQ      BX, SI
	ADDQ      DX, DI
	DECQ      CX
	JNZ       hv8
	VZEROUPPER
	RET

hv16:
	VPMOVZXBW (SI), Y0
	VPMOVZXBW 1(SI), Y1
	VPMOVZXBW (SI)(BX*1), Y2
	VPMOVZXBW 1(SI)(BX*1), Y3
	VPADDW    Y1, Y0, Y0
	VPADDW    Y3, Y2, Y2
	VPADDW    Y2, Y0, Y0
	VPADDW    Y4, Y0, Y0
	VPSRLW    $2, Y0, Y0
	VPACKUSWB Y0, Y0, Y0
	VPERMQ    $0xD8, Y0, Y0
	VMOVDQU   X0, (DI)
	ADDQ      BX, SI
	ADDQ      DX, DI
	DECQ      CX
	JNZ       hv16
	VZEROUPPER
	RET

// func avgBytesAsm(dst, a, b *byte, n int)
TEXT ·avgBytesAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX

	CMPQ CX, $32
	JL   avgTail

avg32:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	VPAVGB  Y1, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JGE     avg32

avgTail:
	TESTQ CX, CX
	JZ    avgDone

avg8:
	MOVQ   (SI), X0
	MOVQ   (DX), X1
	VPAVGB X1, X0, X0
	MOVQ   X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DX
	ADDQ   $8, DI
	SUBQ   $8, CX
	JNZ    avg8

avgDone:
	VZEROUPPER
	RET

// func avgRowsAsm(dst, src *byte, dstStride, srcStride, w, h int)
//
// Strided in-place average: each of the h rows of dst (w = 8 or 16 bytes)
// becomes the rounded average of itself and the matching row of src. A
// row is loaded before it is stored and rows do not overlap, so dst being
// both operand and result is the contract, not a hazard.
TEXT ·avgRowsAsm(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ dstStride+16(FP), DX
	MOVQ srcStride+24(FP), BX
	MOVQ w+32(FP), R8
	MOVQ h+40(FP), CX
	CMPQ R8, $16
	JE   avgRows16

avgRows8:
	MOVQ   (DI), X0
	MOVQ   (SI), X1
	VPAVGB X1, X0, X0
	MOVQ   X0, (DI)
	ADDQ   BX, SI
	ADDQ   DX, DI
	DECQ   CX
	JNZ    avgRows8
	RET

avgRows16:
	VMOVDQU (DI), X0
	VPAVGB  (SI), X0, X0
	VMOVDQU X0, (DI)
	ADDQ    BX, SI
	ADDQ    DX, DI
	DECQ    CX
	JNZ     avgRows16
	RET
