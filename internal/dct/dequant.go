package dct

// Dequant is what ReconBlock dequantizes with: one weight matrix W at one
// quantiser_scale, multiplied out and laid out in the order the kernel
// loads a block, so that a coefficient costs one vector multiply. Set
// fills it, and refills it only when its parameters change.
type Dequant struct {
	w [64]int32 // quantiser_scale × W, in loadOrder
	k int32     // 1 for non-intra blocks, 0 for intra ones

	matrix        *[64]uint8
	scale, dcMult int32
}

// loadOrder[i] is the raster index of the coefficient the kernel holds in
// lane i&7 of load group i>>3: group g is four columns, 4(g&1) to
// 4(g&1)+3, of row g>>1 (lanes 0-3) and of row (g>>1)+4 (lanes 4-7).
var loadOrder = func() (o [64]uint8) {
	for i := range o {
		g, l := i>>3, i&7
		o[i] = uint8(4*g + l&3 + 32*(l>>2))
	}
	return o
}()

// Set makes d dequantize as quant.InverseMasked does with weight matrix m
// at quantiser_scale scale: non-intra blocks when dcMult is 0, intra
// blocks with intra DC multiplier dcMult (quant.IntraDCMult) otherwise.
// It rebuilds the table only when m, scale or dcMult differ from the last
// call, so *m must not change while d is in use.
func (d *Dequant) Set(m *[64]uint8, scale, dcMult int32) {
	if d.matrix == m && d.scale == scale && d.dcMult == dcMult {
		return
	}
	d.matrix, d.scale, d.dcMult = m, scale, dcMult
	for i, r := range loadOrder {
		d.w[i] = scale * int32(m[r])
	}
	d.k = 1
	if dcMult != 0 {
		// (2·|QF|·16·dcMult) >> 5 = |QF|·dcMult: the intra DC term takes
		// the AC terms' multiply, shift and saturation.
		d.w[0], d.k = 16*dcMult, 0
	}
}
