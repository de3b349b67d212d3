// AVX2 inverse DCT, and the coded-block kernel built on it.
//
// Both entry points run one transform, IDCT8X8: Wang's fast integer
// algorithm with the row pass on 16-bit coefficient pairs and the column
// pass on 32-bit lanes, eight rows (then columns) per instruction.
// idctAsm loads a coefficient block, transforms it and stores the
// clamp9'd result; ReconBlock dequantizes a quantized block on the way in
// and writes pixels on the way out, so a coded block never touches memory
// between its quantized levels and its pixels.
//
// Bit-exactness with the scalar idctRow/idctCol holds lane for lane for
// every input that fits int16 (dequantized coefficients are saturated to
// [-2048, 2047]): the row pass's first two stages are integer linear
// combinations of pairs of coefficients — w7(x4+x5) + (w1-w7)x4 is
// w1·C1 + w7·C7 — which VPMADDWD forms exactly from int16 pairs, and
// everything after them is the scalar recurrence in 32-bit lanes, where
// VPMULLD wraps like Go int32 multiplication and VPSRAD matches Go's
// arithmetic >>. The column pass stays 32-bit: its inputs can exceed
// int16. The scalar row DC shortcut is an identity, so it is not needed.

#include "textflag.h"
#include "go_asm.h"

// VEC defines a 32-byte constant: the 8-byte pattern q four times.
#define VEC(name, q) \
	DATA name<>+0(SB)/8, q \
	DATA name<>+8(SB)/8, q \
	DATA name<>+16(SB)/8, q \
	DATA name<>+24(SB)/8, q \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// Row pass: word pairs (low word × first coefficient of the pair, high
// word × second), Wk = 2048·√2·cos(kπ/16): w1 2841, w2 2676, w3 2408,
// w5 1609, w6 1108, w7 565.
VEC(r04p, $0x0800080008000800) // (2048, 2048)
VEC(r04m, $0xF8000800F8000800) // (2048, -2048)
VEC(r17a, $0x02350B1902350B19) // (w1, w7)
VEC(r17b, $0xF4E70235F4E70235) // (w7, -w1)
VEC(r53a, $0x0968064909680649) // (w5, w3)
VEC(r53b, $0xF9B70968F9B70968) // (w3, -w5)
VEC(r26a, $0x04540A7404540A74) // (w2, w6)
VEC(r26b, $0xF58C0454F58C0454) // (w6, -w2)

// Column pass and shared dwords.
VEC(w7, $0x0000023500000235)    // 565
VEC(w1m7, $0x000008E4000008E4)  // w1-w7 = 2276
VEC(w1p7, $0x00000D4E00000D4E)  // w1+w7 = 3406
VEC(w3, $0x0000096800000968)    // 2408
VEC(w3m5, $0x0000031F0000031F)  // w3-w5 = 799
VEC(w3p5, $0x00000FB100000FB1)  // w3+w5 = 4017
VEC(w6, $0x0000045400000454)    // 1108
VEC(w2p6, $0x00000EC800000EC8)  // w2+w6 = 3784
VEC(w2m6, $0x0000062000000620)  // w2-w6 = 1568
VEC(c181, $0x000000B5000000B5)  // butterfly scale
VEC(b128, $0x0000008000000080)  // rounding biases
VEC(b4, $0x0000000400000004)
VEC(b8192, $0x0000200000002000)
VEC(cmax, $0x000000FF000000FF)  // clamp9 bounds: 255
VEC(cmin, $0xFFFFFF00FFFFFF00)  // -256
VEC(dqmax, $0x07FF07FF07FF07FF) // dequantization saturation: 2047
VEC(dqmin, $0xF800F800F800F800) // -2048 (words)

// Per 128-bit lane, the words of one row in column order → the pairs
// (C0,C4) (C1,C7) (C2,C6) (C5,C3).
DATA pairs<>+0(SB)/8, $0x0F0E030209080100
DATA pairs<>+8(SB)/8, $0x07060B0A0D0C0504
DATA pairs<>+16(SB)/8, $0x0F0E030209080100
DATA pairs<>+24(SB)/8, $0x07060B0A0D0C0504
GLOBL pairs<>(SB), RODATA|NOPTR, $32

// Word 15 = 1: bit 0 of coefficient 63 among the dequantized words.
DATA lane63<>+0(SB)/8, $0
DATA lane63<>+8(SB)/8, $0
DATA lane63<>+16(SB)/8, $0
DATA lane63<>+24(SB)/8, $0x0001000000000000
GLOBL lane63<>(SB), RODATA|NOPTR, $32

// VPERMD indices that turn [r0lo r1lo r2lo r3lo | r0hi r1hi r2hi r3hi]
// (four bytes each) into rows 0–3 as consecutive qwords.
DATA rowperm<>+0(SB)/8, $0x0000000400000000
DATA rowperm<>+8(SB)/8, $0x0000000500000001
DATA rowperm<>+16(SB)/8, $0x0000000600000002
DATA rowperm<>+24(SB)/8, $0x0000000700000003
GLOBL rowperm<>(SB), RODATA|NOPTR, $32

// TRANSPOSE8: Y0-Y7 hold rows; afterwards Y8-Y15 hold columns
// (Y8+k lane r = old Yr lane k).
#define TRANSPOSE8 \
	VPUNPCKLDQ  Y1, Y0, Y8    \
	VPUNPCKHDQ  Y1, Y0, Y9    \
	VPUNPCKLDQ  Y3, Y2, Y10   \
	VPUNPCKHDQ  Y3, Y2, Y11   \
	VPUNPCKLDQ  Y5, Y4, Y12   \
	VPUNPCKHDQ  Y5, Y4, Y13   \
	VPUNPCKLDQ  Y7, Y6, Y14   \
	VPUNPCKHDQ  Y7, Y6, Y15   \
	VPUNPCKLQDQ Y10, Y8, Y0   \
	VPUNPCKHQDQ Y10, Y8, Y1   \
	VPUNPCKLQDQ Y11, Y9, Y2   \
	VPUNPCKHQDQ Y11, Y9, Y3   \
	VPUNPCKLQDQ Y14, Y12, Y4  \
	VPUNPCKHQDQ Y14, Y12, Y5  \
	VPUNPCKLQDQ Y15, Y13, Y6  \
	VPUNPCKHQDQ Y15, Y13, Y7  \
	VPERM2I128  $0x20, Y4, Y0, Y8  \
	VPERM2I128  $0x31, Y4, Y0, Y12 \
	VPERM2I128  $0x20, Y5, Y1, Y9  \
	VPERM2I128  $0x31, Y5, Y1, Y13 \
	VPERM2I128  $0x20, Y6, Y2, Y10 \
	VPERM2I128  $0x31, Y6, Y2, Y14 \
	VPERM2I128  $0x20, Y7, Y3, Y11 \
	VPERM2I128  $0x31, Y7, Y3, Y15

// IDCT8X8 transforms the block held in Y0, Y2, Y4, Y6 as words — Y2r is
// row r in its low lane and row r+4 in its high lane, columns in order —
// into Y0-Y7 = output rows 0-7 as dwords, not yet clamped. It uses every
// Y register.
//
// Row pass (lanes = rows). VPSHUFB pairs the words of each row, and a
// 4×8 dword transpose leaves Y0 = (C0,C4), Y1 = (C1,C7), Y2 = (C2,C6),
// Y3 = (C5,C3), dword lane r = row r. Then, as idctRow:
//   x8, x0 = (C0 ± C4)<<11 + 128      x4, x5 = w1·C1 + w7·C7, w7·C1 − w1·C7
//   x6, x7 = w5·C5 + w3·C3, w3·C5 − w5·C3
//   x3, x2 = w2·C2 + w6·C6, w6·C2 − w2·C6
// in Y4 Y5 Y6 Y7 Y8 Y9 Y10 Y11, the rest of stages 2-4 in 32 bits, and
// outputs O0-O7 in Y0-Y7 (lane = row). TRANSPOSE8 gives Y8+j = row j.
//
// Column pass (lanes = columns), as idctCol; outputs E0-E7 in Y0-Y7.
#define IDCT8X8 \
	VPSHUFB     pairs<>(SB), Y0, Y0 \
	VPSHUFB     pairs<>(SB), Y2, Y2 \
	VPSHUFB     pairs<>(SB), Y4, Y4 \
	VPSHUFB     pairs<>(SB), Y6, Y6 \
	VPUNPCKLDQ  Y2, Y0, Y8   \
	VPUNPCKHDQ  Y2, Y0, Y9   \
	VPUNPCKLDQ  Y6, Y4, Y10  \
	VPUNPCKHDQ  Y6, Y4, Y11  \
	VPUNPCKLQDQ Y10, Y8, Y0  \
	VPUNPCKHQDQ Y10, Y8, Y1  \
	VPUNPCKLQDQ Y11, Y9, Y2  \
	VPUNPCKHQDQ Y11, Y9, Y3  \
	VPMADDWD    r04p<>(SB), Y0, Y4 \
	VPADDD      b128<>(SB), Y4, Y4 \
	VPMADDWD    r04m<>(SB), Y0, Y5 \
	VPADDD      b128<>(SB), Y5, Y5 \
	VPMADDWD    r17a<>(SB), Y1, Y6 \
	VPMADDWD    r17b<>(SB), Y1, Y7 \
	VPMADDWD    r53a<>(SB), Y3, Y8 \
	VPMADDWD    r53b<>(SB), Y3, Y9 \
	VPMADDWD    r26a<>(SB), Y2, Y10 \
	VPMADDWD    r26b<>(SB), Y2, Y11 \
	VPADDD      Y8, Y6, Y12  \
	VPSUBD      Y8, Y6, Y6   \
	VPADDD      Y9, Y7, Y8   \
	VPSUBD      Y9, Y7, Y7   \
	VPADDD      Y10, Y4, Y9  \
	VPSUBD      Y10, Y4, Y4  \
	VPADDD      Y11, Y5, Y10 \
	VPSUBD      Y11, Y5, Y5  \
	VPADDD      Y7, Y6, Y11  \
	VPMULLD     c181<>(SB), Y11, Y11 \
	VPADDD      b128<>(SB), Y11, Y11 \
	VPSRAD      $8, Y11, Y11 \
	VPSUBD      Y7, Y6, Y6   \
	VPMULLD     c181<>(SB), Y6, Y6 \
	VPADDD      b128<>(SB), Y6, Y6 \
	VPSRAD      $8, Y6, Y6   \
	VPADDD      Y8, Y4, Y3   \
	VPSUBD      Y8, Y4, Y4   \
	VPADDD      Y6, Y5, Y2   \
	VPSUBD      Y6, Y5, Y5   \
	VPADDD      Y11, Y10, Y1 \
	VPSUBD      Y11, Y10, Y6 \
	VPADDD      Y12, Y9, Y0  \
	VPSUBD      Y12, Y9, Y7  \
	VPSRAD      $8, Y0, Y0   \
	VPSRAD      $8, Y1, Y1   \
	VPSRAD      $8, Y2, Y2   \
	VPSRAD      $8, Y3, Y3   \
	VPSRAD      $8, Y4, Y4   \
	VPSRAD      $8, Y5, Y5   \
	VPSRAD      $8, Y6, Y6   \
	VPSRAD      $8, Y7, Y7   \
	TRANSPOSE8               \
	VPADDD      Y15, Y9, Y0  \
	VPMULLD     w7<>(SB), Y0, Y0 \
	VPADDD      b4<>(SB), Y0, Y0 \
	VPMULLD     w1m7<>(SB), Y9, Y1 \
	VPADDD      Y1, Y0, Y1   \
	VPSRAD      $3, Y1, Y1   \
	VPMULLD     w1p7<>(SB), Y15, Y2 \
	VPSUBD      Y2, Y0, Y2   \
	VPSRAD      $3, Y2, Y2   \
	VPADDD      Y11, Y13, Y0 \
	VPMULLD     w3<>(SB), Y0, Y0 \
	VPADDD      b4<>(SB), Y0, Y0 \
	VPMULLD     w3m5<>(SB), Y13, Y3 \
	VPSUBD      Y3, Y0, Y3   \
	VPSRAD      $3, Y3, Y3   \
	VPMULLD     w3p5<>(SB), Y11, Y4 \
	VPSUBD      Y4, Y0, Y4   \
	VPSRAD      $3, Y4, Y4   \
	VPSLLD      $8, Y8, Y5   \
	VPADDD      b8192<>(SB), Y5, Y5 \
	VPSLLD      $8, Y12, Y6  \
	VPADDD      Y6, Y5, Y7   \
	VPSUBD      Y6, Y5, Y5   \
	VPADDD      Y14, Y10, Y6 \
	VPMULLD     w6<>(SB), Y6, Y6 \
	VPADDD      b4<>(SB), Y6, Y6 \
	VPMULLD     w2p6<>(SB), Y14, Y8 \
	VPSUBD      Y8, Y6, Y8   \
	VPSRAD      $3, Y8, Y8   \
	VPMULLD     w2m6<>(SB), Y10, Y9 \
	VPADDD      Y9, Y6, Y9   \
	VPSRAD      $3, Y9, Y9   \
	VPADDD      Y3, Y1, Y6   \
	VPSUBD      Y3, Y1, Y1   \
	VPADDD      Y4, Y2, Y3   \
	VPSUBD      Y4, Y2, Y2   \
	VPADDD      Y9, Y7, Y4   \
	VPSUBD      Y9, Y7, Y7   \
	VPADDD      Y8, Y5, Y9   \
	VPSUBD      Y8, Y5, Y5   \
	VPADDD      Y2, Y1, Y8   \
	VPMULLD     c181<>(SB), Y8, Y8 \
	VPADDD      b128<>(SB), Y8, Y8 \
	VPSRAD      $8, Y8, Y8   \
	VPSUBD      Y2, Y1, Y1   \
	VPMULLD     c181<>(SB), Y1, Y1 \
	VPADDD      b128<>(SB), Y1, Y1 \
	VPSRAD      $8, Y1, Y1   \
	VPADDD      Y6, Y4, Y0   \
	VPSUBD      Y6, Y4, Y10  \
	VPADDD      Y1, Y5, Y2   \
	VPSUBD      Y1, Y5, Y5   \
	VPADDD      Y8, Y9, Y1   \
	VPSUBD      Y8, Y9, Y6   \
	VPSUBD      Y3, Y7, Y4   \
	VPADDD      Y3, Y7, Y3   \
	VPSRAD      $14, Y0, Y0  \
	VPSRAD      $14, Y1, Y1  \
	VPSRAD      $14, Y2, Y2  \
	VPSRAD      $14, Y3, Y3  \
	VPSRAD      $14, Y4, Y4  \
	VPSRAD      $14, Y5, Y5  \
	VPSRAD      $14, Y6, Y6  \
	VPSRAD      $14, Y10, Y7

// LOAD2(lo, hi, Xd, Yd): Yd = the four dwords at lo(SI) | the four at hi(SI).
#define LOAD2(lo, hi, Xd, Yd) \
	VMOVDQU     lo(SI), Xd \
	VINSERTI128 $1, hi(SI), Yd, Yd

// func idctAsm(blk *[64]int32)
TEXT ·idctAsm(SB), NOSPLIT, $0-8
	MOVQ blk+0(FP), SI

	LOAD2(0, 128, X0, Y0)
	LOAD2(16, 144, X1, Y1)
	LOAD2(32, 160, X2, Y2)
	LOAD2(48, 176, X3, Y3)
	LOAD2(64, 192, X4, Y4)
	LOAD2(80, 208, X5, Y5)
	LOAD2(96, 224, X6, Y6)
	LOAD2(112, 240, X7, Y7)
	VPACKSSDW Y1, Y0, Y0
	VPACKSSDW Y3, Y2, Y2
	VPACKSSDW Y5, Y4, Y4
	VPACKSSDW Y7, Y6, Y6

	IDCT8X8

	VPMINSD cmax<>(SB), Y0, Y0
	VPMAXSD cmin<>(SB), Y0, Y0
	VPMINSD cmax<>(SB), Y1, Y1
	VPMAXSD cmin<>(SB), Y1, Y1
	VPMINSD cmax<>(SB), Y2, Y2
	VPMAXSD cmin<>(SB), Y2, Y2
	VPMINSD cmax<>(SB), Y3, Y3
	VPMAXSD cmin<>(SB), Y3, Y3
	VPMINSD cmax<>(SB), Y4, Y4
	VPMAXSD cmin<>(SB), Y4, Y4
	VPMINSD cmax<>(SB), Y5, Y5
	VPMAXSD cmin<>(SB), Y5, Y5
	VPMINSD cmax<>(SB), Y6, Y6
	VPMAXSD cmin<>(SB), Y6, Y6
	VPMINSD cmax<>(SB), Y7, Y7
	VPMAXSD cmin<>(SB), Y7, Y7

	VMOVDQU Y0, (SI)
	VMOVDQU Y1, 32(SI)
	VMOVDQU Y2, 64(SI)
	VMOVDQU Y3, 96(SI)
	VMOVDQU Y4, 128(SI)
	VMOVDQU Y5, 160(SI)
	VMOVDQU Y6, 192(SI)
	VMOVDQU Y7, 224(SI)
	VZEROUPPER
	RET

// DEQUANT2(lo0, hi0, w0, lo1, hi1, w1, Yd): Yd = the row pair of load
// groups [lo0(SI) | hi0(SI)] and [lo1(SI) | hi1(SI)] dequantized with the
// Dequant table vectors at w0(DX) and w1(DX), k in Y15, as words:
// sign(QF)·min((2|QF| + k)·scale·W >> 5, 2047 or 2048). Both factors of
// the product fit int16 (2|QF| + k ≤ 4095 has a zero high word, and
// scale·W ≤ 112·255), so VPMADDWD forms it exactly; the pack saturates it
// to int16 on the way to the clamp, and VPSIGNW zeroes the words whose QF
// is zero, which is the "+k only where QF ≠ 0" of non-intra blocks.
#define DEQUANT2(lo0, hi0, w0, lo1, hi1, w1, Yd) \
	LOAD2(lo0, hi0, X8, Y8)       \
	LOAD2(lo1, hi1, X9, Y9)       \
	VPABSD    Y8, Y10             \
	VPABSD    Y9, Y11             \
	VPADDD    Y10, Y10, Y10       \
	VPADDD    Y11, Y11, Y11       \
	VPOR      Y15, Y10, Y10       \
	VPOR      Y15, Y11, Y11       \
	VPMADDWD  w0(DX), Y10, Y10    \
	VPMADDWD  w1(DX), Y11, Y11    \
	VPSRAD    $5, Y10, Y10        \
	VPSRAD    $5, Y11, Y11        \
	VPACKSSDW Y11, Y10, Yd        \
	VPACKSSDW Y9, Y8, Y8          \
	VPSIGNW   Y8, Yd, Yd          \
	VPMINSW   dqmax<>(SB), Yd, Yd \
	VPMAXSW   dqmin<>(SB), Yd, Yd

// STORE4(p, Xr, Yr): the four qwords of Yr, four rows of eight pixels,
// at p, p+BX, p+2·BX and p+3·BX (R8 = 3·BX).
#define STORE4(p, Xr, Yr) \
	VMOVQ        Xr, (p)          \
	VMOVHPS      Xr, (p)(BX*1)    \
	VEXTRACTI128 $1, Yr, Xr       \
	VMOVQ        Xr, (p)(BX*2)    \
	VMOVHPS      Xr, (p)(R8*1)

// LOADPRED4(p, Xd, Yd, Yt): Yd = the eight bytes at p, p+BX, p+2·BX and
// p+3·BX as its four qwords, by broadcasts and blends (no shuffle).
#define LOADPRED4(p, Xd, Yd, Yt) \
	VMOVQ        (p), Xd               \
	VPBROADCASTQ (p)(BX*1), Yt         \
	VPBLENDD     $0x0C, Yt, Yd, Yd     \
	VPBROADCASTQ (p)(BX*2), Yt         \
	VPBLENDD     $0x30, Yt, Yd, Yd     \
	VPBROADCASTQ (p)(R8*1), Yt         \
	VPBLENDD     $0xC0, Yt, Yd, Yd

// func ReconBlock(dst *byte, stride int, qf *[64]int32, d *Dequant, add bool)
TEXT ·ReconBlock(SB), NOSPLIT, $0-33
	MOVQ dst+0(FP), DI
	MOVQ stride+8(FP), BX
	MOVQ qf+16(FP), SI
	MOVQ d+24(FP), DX
	LEAQ (BX)(BX*2), R8
	LEAQ (DI)(BX*4), R9 // row 4

	VPBROADCASTD Dequant_k(DX), Y15
	DEQUANT2(0, 128, 0, 16, 144, 32, Y0)
	DEQUANT2(32, 160, 64, 48, 176, 96, Y2)
	DEQUANT2(64, 192, 128, 80, 208, 160, Y4)
	DEQUANT2(96, 224, 192, 112, 240, 224, Y6)

	// Mismatch control: the sum of the 64 coefficients is even exactly
	// when the XOR of their low bits is 0; then coefficient 63 (word 15
	// of Y6) has its low bit toggled.
	VPXOR      Y2, Y0, Y8
	VPXOR      Y6, Y4, Y9
	VPXOR      Y9, Y8, Y8
	VPERM2I128 $0x01, Y8, Y8, Y9
	VPXOR      Y9, Y8, Y8
	VPSHUFD    $0x4E, Y8, Y9
	VPXOR      Y9, Y8, Y8
	VPSHUFD    $0xB1, Y8, Y9
	VPXOR      Y9, Y8, Y8
	VPSLLD     $16, Y8, Y9
	VPXOR      Y9, Y8, Y8        // each high word: the XOR of all 64
	VPANDN     lane63<>(SB), Y8, Y8
	VPXOR      Y8, Y6, Y6

	IDCT8X8

	// Pixels. The packs saturate E to int16 and then to [0, 255], which
	// is clampPixel of the clamp9'd value; rows 0-3 go to Y8, 4-7 to Y9.
	VPACKSSDW Y1, Y0, Y0
	VPACKSSDW Y3, Y2, Y2
	VPACKSSDW Y5, Y4, Y4
	VPACKSSDW Y7, Y6, Y6
	VMOVDQU   rowperm<>(SB), Y15
	VPACKUSWB Y2, Y0, Y8
	VPERMD    Y8, Y15, Y8
	VPACKUSWB Y6, Y4, Y9
	VPERMD    Y9, Y15, Y9

	CMPB add+32(FP), $0
	JNE  addpred
	STORE4(DI, X8, Y8)
	STORE4(R9, X9, Y9)
	VZEROUPPER
	RET

addpred:
	// pred + E clamped to [0, 255] is (pred +us clamp(E, 0, 255)) -us
	// clamp(-E, 0, 255), bytes with unsigned saturation: one of the two
	// terms is zero, and a residual below -255 takes every prediction byte
	// to 0 either way.
	VPXOR     Y10, Y10, Y10
	VPSUBSW   Y0, Y10, Y0
	VPSUBSW   Y2, Y10, Y2
	VPSUBSW   Y4, Y10, Y4
	VPSUBSW   Y6, Y10, Y6
	VPACKUSWB Y2, Y0, Y0
	VPERMD    Y0, Y15, Y0
	VPACKUSWB Y6, Y4, Y4
	VPERMD    Y4, Y15, Y4
	LOADPRED4(DI, X10, Y10, Y12)
	LOADPRED4(R9, X11, Y11, Y13)
	VPADDUSB  Y8, Y10, Y10
	VPSUBUSB  Y0, Y10, Y10
	VPADDUSB  Y9, Y11, Y11
	VPSUBUSB  Y4, Y11, Y11
	STORE4(DI, X10, Y10)
	STORE4(R9, X11, Y11)
	VZEROUPPER
	RET
