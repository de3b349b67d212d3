// AVX2 half-pel motion-compensation kernels. Layout contract (checked by
// the Go wrappers): the source sample region — (w+hx) columns by (h+hy)
// rows at the given stride — lies fully inside the reference plane, and
// the destination holds h rows of w bytes. The per-plane kernels are 16
// wide (w is ignored): 8-wide chroma goes through predictMBAsm.
//
// Rounding identities used:
//   half-pel H/V:  (a+b+1)>>1      = VPAVGB
//   diagonal:      (a+b+c+d+2)>>2  = widen to 16-bit, sum, +2, >>2, narrow
//
// Every instruction touching an X or Y register is VEX-encoded (VMOVQ,
// never MOVQ, to or from an X register): a legacy-SSE instruction after a
// 256-bit one dirtied the upper YMM state costs a state transition on
// Haswell and Broadwell.

#include "textflag.h"

// Y4 = 0x0002 in every 16-bit lane: the diagonal's rounding bias.
#define BIAS MOVQ $0x0002000200020002, AX; VMOVQ AX, X4; VPBROADCASTQ X4, Y4

// Luma rows: X0 = 16 predicted bytes from the row at SI (rows BX apart).
// The diagonal widens to 16-bit lanes so the sum (at most 4*255+2) cannot
// carry between pixels; VPACKUSWB packs per 128-bit lane, so a VPERMQ
// gathers the row into X0.
#define LUMA_COPY VMOVDQU (SI), X0
#define LUMA_H VMOVDQU (SI), X0; VPAVGB 1(SI), X0, X0
#define LUMA_V VMOVDQU (SI), X0; VPAVGB (SI)(BX*1), X0, X0
#define LUMA_HV \
	VPMOVZXBW (SI), Y0; VPMOVZXBW 1(SI), Y1; VPMOVZXBW (SI)(BX*1), Y2; VPMOVZXBW 1(SI)(BX*1), Y3; \
	VPADDW Y1, Y0, Y0; VPADDW Y3, Y2, Y2; VPADDW Y2, Y0, Y0; VPADDW Y4, Y0, Y0; VPSRLW $2, Y0, Y0; \
	VPACKUSWB Y0, Y0, Y0; VPERMQ $0xD8, Y0, Y0
#define LUMA_PUT VMOVDQU X0, (DI)
#define LUMA_AVG VPAVGB (DI), X0, X0; VMOVDQU X0, (DI)

// LUMA loops CX rows of ROW then STORE (destination rows DX apart), then
// does DONE.
#define LUMA(lbl, ROW, STORE, DONE) \
lbl: \
	ROW; STORE; \
	ADDQ BX, SI; ADDQ DX, DI; DECQ CX; JNZ lbl; \
	DONE

// The per-plane kernels: func predict{Copy,H,V,HV}Asm(dst, src *byte,
// dstStride, srcStride, w, h int), for PredictBlock and a plane
// predictBlockClamped did not take.
#define PLANE_ARGS \
	MOVQ dst+0(FP), DI; MOVQ src+8(FP), SI; MOVQ dstStride+16(FP), DX; MOVQ srcStride+24(FP), BX; \
	MOVQ h+40(FP), CX

TEXT ·predictCopyAsm(SB), NOSPLIT, $0-48
	PLANE_ARGS
	LUMA(copy16, LUMA_COPY, LUMA_PUT, RET)

TEXT ·predictHAsm(SB), NOSPLIT, $0-48
	PLANE_ARGS
	LUMA(h16, LUMA_H, LUMA_PUT, RET)

TEXT ·predictVAsm(SB), NOSPLIT, $0-48
	PLANE_ARGS
	LUMA(v16, LUMA_V, LUMA_PUT, RET)

TEXT ·predictHVAsm(SB), NOSPLIT, $0-48
	BIAS
	PLANE_ARGS
	LUMA(hv16, LUMA_HV, LUMA_PUT, VZEROUPPER; RET)

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
	VMOVQ  (SI), X0
	VMOVQ  (DX), X1
	VPAVGB X1, X0, X0
	VMOVQ  X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DX
	ADDQ   $8, DI
	SUBQ   $8, CX
	JNZ    avg8

avgDone:
	VZEROUPPER
	RET

// Chroma rows: X0 = 8 predicted bytes of Cb from the row at SI, X1 of Cr
// from the row at R11 (both planes' rows BX apart).
#define CHROMA_COPY VMOVQ (SI), X0; VMOVQ (R11), X1
#define CHROMA_H \
	VMOVQ (SI), X0; VMOVQ 1(SI), X2; VPAVGB X2, X0, X0; \
	VMOVQ (R11), X1; VMOVQ 1(R11), X3; VPAVGB X3, X1, X1
#define CHROMA_V \
	VMOVQ (SI), X0; VMOVQ (SI)(BX*1), X2; VPAVGB X2, X0, X0; \
	VMOVQ (R11), X1; VMOVQ (R11)(BX*1), X3; VPAVGB X3, X1, X1
#define CHROMA_HV1(src, dst) \
	VPMOVZXBW (src), dst; VPMOVZXBW 1(src), X2; VPMOVZXBW (src)(BX*1), X3; VPMOVZXBW 1(src)(BX*1), X5; \
	VPADDW X2, dst, dst; VPADDW X5, X3, X3; VPADDW X3, dst, dst; VPADDW X4, dst, dst; VPSRLW $2, dst, dst; \
	VPACKUSWB dst, dst, dst
#define CHROMA_HV CHROMA_HV1(SI, X0); CHROMA_HV1(R11, X1)
#define CHROMA_PUT VMOVQ X0, (DI); VMOVQ X1, (R10)
#define CHROMA_AVG \
	VMOVQ (DI), X2; VPAVGB X2, X0, X0; VMOVQ X0, (DI); \
	VMOVQ (R10), X3; VPAVGB X3, X1, X1; VMOVQ X1, (R10)

// CHROMA loops CX rows of ROW then STORE over both planes (destination
// rows DX apart, Cb at DI, Cr at R10), and returns.
#define CHROMA(lbl, ROW, STORE) \
lbl: \
	ROW; STORE; \
	ADDQ BX, SI; ADDQ BX, R11; ADDQ DX, DI; ADDQ DX, R10; DECQ CX; JNZ lbl; \
	VZEROUPPER; RET

// SELECT jumps to the loop l0 … l7 that the selector in R9 names.
#define SELECT(l0, l1, l2, l3, l4, l5, l6, l7) \
	CMPQ R9, $1; JLT l0; JEQ l1; CMPQ R9, $3; JLT l2; JEQ l3; \
	CMPQ R9, $5; JLT l4; JEQ l5; CMPQ R9, $7; JLT l6; JMP l7

// func predictMBAsm(dY, dCb, dCr, sY, sCb, sCr *byte, dys, dcs, ys, cs, h, ySel, cSel int)
//
// One direction's prediction of a macroblock, or of one field of it: h
// rows of 16 luma bytes and h/2 rows of 8 bytes of each chroma plane, from
// the source planes at their sample origins (rows ys and cs apart) into
// the destination planes (rows dys and dcs apart). A plane's selector is
// its half-pel phase hx | hy<<1, plus 4 to average the prediction into
// what the destination holds, (a+b+1)>>1, instead of storing it. Each
// plane's selector picks one of eight loops once; nothing is decided per
// row. Cb and Cr share the selector, the offsets and the strides, so one
// loop walks both.
TEXT ·predictMBAsm(SB), NOSPLIT, $0-104
	BIAS
	MOVQ dY+0(FP), DI
	MOVQ sY+24(FP), SI
	MOVQ dys+48(FP), DX
	MOVQ ys+64(FP), BX
	MOVQ h+80(FP), CX
	MOVQ ySel+88(FP), R9
	SELECT(lumaPutCopy, lumaPutH, lumaPutV, lumaPutHV, lumaAvgCopy, lumaAvgH, lumaAvgV, lumaAvgHV)
	LUMA(lumaPutCopy, LUMA_COPY, LUMA_PUT, JMP chroma)
	LUMA(lumaPutH, LUMA_H, LUMA_PUT, JMP chroma)
	LUMA(lumaPutV, LUMA_V, LUMA_PUT, JMP chroma)
	LUMA(lumaPutHV, LUMA_HV, LUMA_PUT, JMP chroma)
	LUMA(lumaAvgCopy, LUMA_COPY, LUMA_AVG, JMP chroma)
	LUMA(lumaAvgH, LUMA_H, LUMA_AVG, JMP chroma)
	LUMA(lumaAvgV, LUMA_V, LUMA_AVG, JMP chroma)
	LUMA(lumaAvgHV, LUMA_HV, LUMA_AVG, JMP chroma)

chroma:
	MOVQ dCb+8(FP), DI
	MOVQ dCr+16(FP), R10
	MOVQ sCb+32(FP), SI
	MOVQ sCr+40(FP), R11
	MOVQ dcs+56(FP), DX
	MOVQ cs+72(FP), BX
	MOVQ h+80(FP), CX
	SHRQ $1, CX
	MOVQ cSel+96(FP), R9
	SELECT(chromaPutCopy, chromaPutH, chromaPutV, chromaPutHV, chromaAvgCopy, chromaAvgH, chromaAvgV, chromaAvgHV)
	CHROMA(chromaPutCopy, CHROMA_COPY, CHROMA_PUT)
	CHROMA(chromaPutH, CHROMA_H, CHROMA_PUT)
	CHROMA(chromaPutV, CHROMA_V, CHROMA_PUT)
	CHROMA(chromaPutHV, CHROMA_HV, CHROMA_PUT)
	CHROMA(chromaAvgCopy, CHROMA_COPY, CHROMA_AVG)
	CHROMA(chromaAvgH, CHROMA_H, CHROMA_AVG)
	CHROMA(chromaAvgV, CHROMA_V, CHROMA_AVG)
	CHROMA(chromaAvgHV, CHROMA_HV, CHROMA_AVG)
