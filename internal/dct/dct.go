// Package dct implements the 8×8 forward and inverse discrete cosine
// transforms used by MPEG video coding.
//
// Two inverse transforms are provided: InverseRef, a double-precision
// separable reference implementation, and Inverse, the classic 32-bit
// integer fast IDCT (Wang's algorithm, as used by the MPEG Software
// Simulation Group decoder the paper parallelized). The fast IDCT meets
// IEEE Std 1180-1990 style accuracy bounds against the reference, which the
// tests verify.
package dct

import "math"

// cosTab[u][x] = c(u)/2 * cos((2x+1)uπ/16), the separable DCT basis.
var cosTab [8][8]float64

func init() {
	for u := 0; u < 8; u++ {
		cu := 1.0
		if u == 0 {
			cu = 1 / math.Sqrt2
		}
		for x := 0; x < 8; x++ {
			cosTab[u][x] = cu / 2 * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16)
		}
	}
}

// ForwardRef computes the forward DCT of the 8×8 spatial block in raster
// order using double precision, rounding to nearest integer.
func ForwardRef(block *[64]int32) {
	var tmp [64]float64
	// Rows.
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			var s float64
			for x := 0; x < 8; x++ {
				s += float64(block[y*8+x]) * cosTab[u][x]
			}
			tmp[y*8+u] = s
		}
	}
	// Columns.
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var s float64
			for y := 0; y < 8; y++ {
				s += tmp[y*8+u] * cosTab[v][y]
			}
			block[v*8+u] = int32(math.RoundToEven(s))
		}
	}
}

// InverseRef computes the inverse DCT in double precision, rounding to
// nearest integer, without saturation.
func InverseRef(block *[64]int32) {
	var tmp [64]float64
	// Rows: spatial index x from frequency index u.
	for v := 0; v < 8; v++ {
		for x := 0; x < 8; x++ {
			var s float64
			for u := 0; u < 8; u++ {
				s += float64(block[v*8+u]) * cosTab[u][x]
			}
			tmp[v*8+x] = s
		}
	}
	// Columns.
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			var s float64
			for v := 0; v < 8; v++ {
				s += tmp[v*8+x] * cosTab[v][y]
			}
			block[y*8+x] = int32(math.RoundToEven(s))
		}
	}
}

// Fixed-point constants: Wk = 2048*sqrt(2)*cos(kπ/16), rounded.
const (
	w1 = 2841
	w2 = 2676
	w3 = 2408
	w5 = 1609
	w6 = 1108
	w7 = 565
)

// Inverse computes the inverse DCT in place using Wang's fast integer
// algorithm with 11 fractional bits in the row pass and results clamped to
// [-256, 255], matching the MSSG reference decoder's idct. Coefficients
// must fit int16, as the [-2048, 2047] saturation of dequantization
// guarantees: the asm tier's row pass multiplies 16-bit pairs.
func Inverse(block *[64]int32) {
	if asmIDCT {
		idctAsm(block)
		return
	}
	for i := 0; i < 8; i++ {
		idctRow(block[i*8 : i*8+8 : i*8+8])
	}
	for i := 0; i < 8; i++ {
		idctCol(block, i)
	}
}

// InverseSparse computes the same transform as Inverse but exploits the
// sparsity contract from quant.InverseSparse: rowMask bit r clear means
// frequency row r is entirely zero (set bits may still be zero rows), and
// dcOnly means every AC coefficient is zero. Zero rows are skipped in the
// row pass — idctRow would only rewrite their zeros — and the two
// overwhelmingly common shapes take short-circuits that are bit-identical
// to the full transform:
//
//   - dcOnly: every output is clamp9(((dc<<3)<<8 + 8192) >> 14), the value
//     the row DC shortcut followed by a one-live-input column pass yields.
//   - rowMask == 1 (only row 0 live): one row transform, then each column
//     reduces to the same single-input column form, a per-column fill.
//
// A rowMask with extra bits set degrades to the general path, never to a
// wrong answer.
func InverseSparse(block *[64]int32, rowMask uint8, dcOnly bool) {
	if dcOnly {
		v := clamp9((block[0]<<3<<8 + 8192) >> 14)
		for i := range block {
			block[i] = v
		}
		return
	}
	if rowMask == 1 {
		idctRow(block[0:8:8])
		for c := 0; c < 8; c++ {
			v := clamp9((block[c]<<8 + 8192) >> 14)
			block[c] = v
			block[8+c] = v
			block[16+c] = v
			block[24+c] = v
			block[32+c] = v
			block[40+c] = v
			block[48+c] = v
			block[56+c] = v
		}
		return
	}
	if asmIDCT {
		// The vectorized kernel transforms all rows; the skipped rows are
		// all-zero, for which the row pass is a zero-writing identity, so
		// the result is bit-identical.
		idctAsm(block)
		return
	}
	for i := 0; i < 8; i++ {
		if rowMask&(1<<uint(i)) != 0 {
			idctRow(block[i*8 : i*8+8 : i*8+8])
		}
	}
	for i := 0; i < 8; i++ {
		idctCol(block, i)
	}
}

func idctRow(b []int32) {
	x1 := b[4] << 11
	x2 := b[6]
	x3 := b[2]
	x4 := b[1]
	x5 := b[7]
	x6 := b[5]
	x7 := b[3]
	if x1|x2|x3|x4|x5|x6|x7 == 0 {
		// DC-only row shortcut (very common after quantization).
		dc := b[0] << 3
		for i := range b {
			b[i] = dc
		}
		return
	}
	x0 := b[0]<<11 + 128 // +128 rounds the final >>8

	// First stage.
	x8 := w7 * (x4 + x5)
	x4 = x8 + (w1-w7)*x4
	x5 = x8 - (w1+w7)*x5
	x8 = w3 * (x6 + x7)
	x6 = x8 - (w3-w5)*x6
	x7 = x8 - (w3+w5)*x7

	// Second stage.
	x8 = x0 + x1
	x0 -= x1
	x1 = w6 * (x3 + x2)
	x2 = x1 - (w2+w6)*x2
	x3 = x1 + (w2-w6)*x3
	x1 = x4 + x6
	x4 -= x6
	x6 = x5 + x7
	x5 -= x7

	// Third stage.
	x7 = x8 + x3
	x8 -= x3
	x3 = x0 + x2
	x0 -= x2
	x2 = (181*(x4+x5) + 128) >> 8
	x4 = (181*(x4-x5) + 128) >> 8

	// Fourth stage.
	b[0] = (x7 + x1) >> 8
	b[1] = (x3 + x2) >> 8
	b[2] = (x0 + x4) >> 8
	b[3] = (x8 + x6) >> 8
	b[4] = (x8 - x6) >> 8
	b[5] = (x0 - x4) >> 8
	b[6] = (x3 - x2) >> 8
	b[7] = (x7 - x1) >> 8
}

func idctCol(b *[64]int32, c int) {
	x1 := b[8*4+c] << 8
	x2 := b[8*6+c]
	x3 := b[8*2+c]
	x4 := b[8*1+c]
	x5 := b[8*7+c]
	x6 := b[8*5+c]
	x7 := b[8*3+c]
	x0 := b[c]<<8 + 8192

	x8 := w7*(x4+x5) + 4
	x4 = (x8 + (w1-w7)*x4) >> 3
	x5 = (x8 - (w1+w7)*x5) >> 3
	x8 = w3*(x6+x7) + 4
	x6 = (x8 - (w3-w5)*x6) >> 3
	x7 = (x8 - (w3+w5)*x7) >> 3

	x8 = x0 + x1
	x0 -= x1
	x1 = w6*(x3+x2) + 4
	x2 = (x1 - (w2+w6)*x2) >> 3
	x3 = (x1 + (w2-w6)*x3) >> 3
	x1 = x4 + x6
	x4 -= x6
	x6 = x5 + x7
	x5 -= x7

	x7 = x8 + x3
	x8 -= x3
	x3 = x0 + x2
	x0 -= x2
	x2 = (181*(x4+x5) + 128) >> 8
	x4 = (181*(x4-x5) + 128) >> 8

	b[8*0+c] = clamp9(int32((x7 + x1) >> 14))
	b[8*1+c] = clamp9(int32((x3 + x2) >> 14))
	b[8*2+c] = clamp9(int32((x0 + x4) >> 14))
	b[8*3+c] = clamp9(int32((x8 + x6) >> 14))
	b[8*4+c] = clamp9(int32((x8 - x6) >> 14))
	b[8*5+c] = clamp9(int32((x0 - x4) >> 14))
	b[8*6+c] = clamp9(int32((x3 - x2) >> 14))
	b[8*7+c] = clamp9(int32((x7 - x1) >> 14))
}

// clamp9 saturates to the 9-bit signed range [-256, 255] required of IDCT
// output by ISO/IEC 13818-2 §7.4.3.
func clamp9(v int32) int32 {
	if v < -256 {
		return -256
	}
	if v > 255 {
		return 255
	}
	return v
}
