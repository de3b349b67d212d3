// Package quant implements MPEG-2 quantization and inverse quantization
// (ISO/IEC 13818-2 §7.4), including the default quantization matrices, the
// linear and non-linear quantiser_scale mappings, coefficient saturation
// and mismatch control.
package quant

import "math/bits"

// DefaultIntraMatrix is the default intra quantization matrix in raster
// order (§6.3.11).
var DefaultIntraMatrix = [64]uint8{
	8, 16, 19, 22, 26, 27, 29, 34,
	16, 16, 22, 24, 27, 29, 34, 37,
	19, 22, 26, 27, 29, 34, 34, 38,
	22, 24, 27, 29, 32, 35, 38, 40,
	26, 27, 29, 32, 35, 40, 43, 46,
	27, 29, 34, 34, 40, 46, 46, 56,
	29, 34, 34, 37, 40, 48, 56, 69,
	34, 37, 38, 40, 48, 58, 69, 83,
}

// DefaultNonIntraMatrix is the default non-intra quantization matrix: a
// flat 16 (§6.3.11).
var DefaultNonIntraMatrix = [64]uint8{
	16, 16, 16, 16, 16, 16, 16, 16,
	16, 16, 16, 16, 16, 16, 16, 16,
	16, 16, 16, 16, 16, 16, 16, 16,
	16, 16, 16, 16, 16, 16, 16, 16,
	16, 16, 16, 16, 16, 16, 16, 16,
	16, 16, 16, 16, 16, 16, 16, 16,
	16, 16, 16, 16, 16, 16, 16, 16,
	16, 16, 16, 16, 16, 16, 16, 16,
}

// nonLinearScale is the q_scale_type=1 mapping from quantiser_scale_code
// (1..31) to quantiser_scale (Table 7-6). Index 0 is unused.
var nonLinearScale = [32]int32{
	0, 1, 2, 3, 4, 5, 6, 7, 8,
	10, 12, 14, 16, 18, 20, 22,
	24, 28, 32, 36, 40, 44, 48,
	52, 56, 64, 72, 80, 88, 96, 104, 112,
}

// Scale returns quantiser_scale for a quantiser_scale_code under the given
// q_scale_type (picture coding extension flag).
func Scale(code int, nonLinear bool) int32 {
	if code < 1 || code > 31 {
		code = 1
	}
	if nonLinear {
		return nonLinearScale[code]
	}
	return int32(code) * 2
}

// ScaleCode returns the quantiser_scale_code whose Scale is closest to
// (and not above, where possible) the requested scale. Used by the encoder.
func ScaleCode(scale int32, nonLinear bool) int {
	best, bestDiff := 1, int32(1<<30)
	for code := 1; code <= 31; code++ {
		s := Scale(code, nonLinear)
		d := s - scale
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			best, bestDiff = code, d
		}
	}
	return best
}

// IntraDCMult returns the intra DC multiplier for intra_dc_precision
// (0..3 coding 8..11 bits): 8, 4, 2, 1.
func IntraDCMult(precision int) int32 {
	switch precision {
	case 0:
		return 8
	case 1:
		return 4
	case 2:
		return 2
	default:
		return 1
	}
}

// Params bundles everything inverse quantization needs for one block.
type Params struct {
	Matrix      *[64]uint8 // weight matrix W, raster order
	Scale       int32      // quantiser_scale
	Intra       bool
	DCPrecision int // intra_dc_precision code 0..3 (intra blocks only)
}

// Inverse dequantizes the block of quantized coefficients QF (raster order)
// in place, applying saturation to [-2048, 2047] and mismatch control
// (§7.4.4). For intra blocks, block[0] must hold the differential-decoded
// DC value (dc_dct_pred applied); it is scaled by the intra DC multiplier.
func Inverse(block *[64]int32, p Params) {
	InverseSparse(block, p, 64)
}

// InverseSparse is InverseMasked for a caller that knows only how many
// quantized coefficients of block are nonzero (pass 64 when unknown): it
// finds them by scanning the block. The block contents produced are
// bit-identical to Inverse.
func InverseSparse(block *[64]int32, p Params, nnz int) (rowMask uint8, dcOnly bool) {
	return InverseMasked(block, p, Mask(block, nnz))
}

// Mask scans block in raster order and returns the mask InverseMasked
// takes — bit i set when block[i] is nonzero — stopping after the nnz-th
// nonzero coefficient (pass 64 to scan the whole block). Rows of eight
// zeros, most rows of most blocks, cost one test.
func Mask(block *[64]int32, nnz int) uint64 {
	var mask uint64
	for r := 0; r < 64 && nnz > 0; r += 8 {
		row := block[r : r+8 : r+8]
		if row[0]|row[1]|row[2]|row[3]|row[4]|row[5]|row[6]|row[7] == 0 {
			continue
		}
		m := nonzero(row[0]) | nonzero(row[1])<<1 | nonzero(row[2])<<2 | nonzero(row[3])<<3 |
			nonzero(row[4])<<4 | nonzero(row[5])<<5 | nonzero(row[6])<<6 | nonzero(row[7])<<7
		for bits.OnesCount64(m) > nnz { // the nnz-th falls inside this row: drop what follows it
			m &^= 1 << uint(63-bits.LeadingZeros64(m))
		}
		nnz -= bits.OnesCount64(m)
		mask |= m << uint(r)
	}
	return mask
}

// nonzero returns 1 when v is nonzero, else 0.
func nonzero(v int32) uint64 { return uint64(uint32(v|-v) >> 31) }

// InverseMasked dequantizes in place the coefficients of block (quantized
// levels QF, raster order) that mask names — bit i stands for block[i] —
// then applies mismatch control (§7.4.4); results saturate to
// [-2048, 2047]. mask must have a bit for every nonzero coefficient and
// for no other: a zero non-intra coefficient under a set bit would come
// out as half a quantizer step. The intra DC term is not the mask's
// business: block[0] of an intra block holds the differential-decoded DC
// value (dc_dct_pred applied) and is always scaled by the intra DC
// multiplier.
//
// The results carry the sparsity contract of the IDCT that follows:
// rowMask bit r is set when frequency row r of the dequantized block may
// hold a nonzero coefficient, and dcOnly is true only when every AC
// coefficient is exactly zero after mismatch control. rowMask is a safe
// superset (a set bit for an all-zero row costs time, not correctness),
// but a clear bit guarantees the row is all zero, and dcOnly is exact —
// both as dct.InverseSparse requires.
func InverseMasked(block *[64]int32, p Params, mask uint64) (rowMask uint8, dcOnly bool) {
	var sum int32
	// Reconstruction works on magnitudes, |F| = (2·|QF| + k)·scale·W / 32
	// with k = 1 for non-intra blocks and 0 for intra ones, so that the
	// division (which truncates toward zero) is a shift.
	k := int32(1)
	if p.Intra {
		block[0] = saturate(block[0] * IntraDCMult(p.DCPrecision))
		sum = block[0]
		if block[0] != 0 {
			rowMask = 1
		}
		mask &^= 1
		k = 0
	}
	live := mask // coefficients that are nonzero once dequantized, save an intra DC
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m) & 63
		qf := block[i]
		neg := qf >> 31 // 0 or -1
		f := ((qf^neg)-neg)<<1 + k
		f = f * p.Scale * int32(p.Matrix[i]) >> 5
		if limit := 2047 - neg; f > limit {
			f = limit
		}
		if f == 0 {
			live &^= 1 << uint(i)
		}
		f = (f ^ neg) - neg
		block[i] = f
		sum += f
	}
	// Mismatch control: if the coefficient sum is even, toggle the LSB of
	// the highest-frequency coefficient. The toggle can turn a zero
	// block[63] nonzero (it joins the live ones) or a one back to zero
	// (it may stay among them; a superset is harmless).
	if sum&1 == 0 {
		block[63] ^= 1
		if block[63] != 0 {
			live |= 1 << 63
		}
	}
	// Bit r of rowMask: any live coefficient among the eight of row r.
	rows := live
	rows |= rows >> 4
	rows |= rows >> 2
	rows |= rows >> 1
	rowMask |= uint8(rows & 0x0101010101010101 * 0x0102040810204080 >> 56)
	return rowMask, live == 0
}

// Forward quantizes the block of DCT coefficients F (raster order) in
// place, producing quantized levels QF. Intra AC terms round to nearest;
// non-intra terms truncate toward zero (dead zone), the conventional
// encoder choice. The intra DC term is divided by the DC multiplier with
// rounding. Levels are clamped to [-2047, 2047] so they remain codable.
func Forward(block *[64]int32, p Params) {
	start := 0
	if p.Intra {
		mult := IntraDCMult(p.DCPrecision)
		block[0] = divRound(block[0], mult)
		dcMax := int32(1)<<(uint(p.DCPrecision)+8) - 1
		block[0] = clampTo(block[0], 0, dcMax) // intra DC of a pixel block is non-negative after +1024 bias upstream
		start = 1
	}
	for i := start; i < 64; i++ {
		f := block[i]
		d := 2 * p.Scale * int32(p.Matrix[i])
		if d == 0 {
			block[i] = 0
			continue
		}
		var qf int32
		if p.Intra {
			qf = divRound(32*f, d)
		} else {
			// Truncation toward zero.
			qf = 32 * f / d
		}
		block[i] = clampTo(qf, -2047, 2047)
	}
}

func saturate(v int32) int32 { return clampTo(v, -2048, 2047) }

func clampTo(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// divRound divides with rounding to nearest, halves away from zero.
func divRound(n, d int32) int32 {
	if d < 0 {
		n, d = -n, -d
	}
	if n >= 0 {
		return (n + d/2) / d
	}
	return -((-n + d/2) / d)
}
