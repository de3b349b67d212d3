package motion

import "mpeg2par/internal/frame"

// Field prediction for frame pictures (§7.6.3.1, frame_motion_type =
// "Field-based"): each field of the macroblock — its even (top) or odd
// (bottom) lines — is predicted separately as a 16×8 block from a chosen
// field of the reference frame, with the vector's vertical component in
// *field* units (one field line = two frame lines).

// PredictMBFieldInto writes a full field-predicted macroblock straight
// into macroblock (mbx, mby) of dst (see PredictMBInto): the top field
// lines from (sel[0], mv1) and the bottom field lines from (sel[1], mv2).
func PredictMBFieldInto(dst, ref *frame.Frame, mbx, mby int, sel [2]bool, mv1, mv2 MV) {
	predictInto(dst, ref, mbx, mby, mv1, true, 0, parity(sel[0]))
	predictInto(dst, ref, mbx, mby, mv2, true, 1, parity(sel[1]))
}

// PredictMBField fills pred with a full field-predicted macroblock: the
// top field from (sel[0], mv1) and the bottom field from (sel[1], mv2).
func PredictMBField(pred *MBPred, ref *frame.Frame, mbx, mby int, sel [2]bool, mv1, mv2 MV) {
	predict(pred.Y[:], pred.Cb[:], pred.Cr[:], 16, 8, ref, mbx, mby, mv1, true, 0, parity(sel[0]))
	predict(pred.Y[:], pred.Cb[:], pred.Cr[:], 16, 8, ref, mbx, mby, mv2, true, 1, parity(sel[1]))
}

// parity maps a motion_vertical_field_select to a line parity: 1 selects
// the bottom field, the odd lines.
func parity(bottom bool) int {
	if bottom {
		return 1
	}
	return 0
}

// SADField returns the sum of absolute differences between the rv-th
// field lines of cur's macroblock (mbx, mby) and the prediction from the
// sel field of ref with field-unit vector mv, stopping early past limit.
func SADField(cur, ref *frame.Frame, mbx, mby, rv int, sel bool, mv MV, limit int) int {
	var tmp [16 * 8]uint8
	PredictBlock(tmp[:], 16, ref.Y[parity(sel)*ref.YStride:], 2*ref.YStride, ref.CodedW, ref.CodedH/2, mbx*16, mby*8, mv.X, mv.Y, 16, 8)
	sad := 0
	for y := 0; y < 8; y++ {
		c := cur.Y[(mby*16+rv+2*y)*cur.YStride+mbx*16:]
		p := tmp[y*16:]
		for x := 0; x < 16; x++ {
			d := int(c[x]) - int(p[x])
			if d < 0 {
				d = -d
			}
			sad += d
		}
		if sad > limit {
			return sad
		}
	}
	return sad
}

// SearchField finds a field vector for the rv-th field of the macroblock
// by refining candidate vectors (field units) over both reference fields.
// It returns the best vector, field select and SAD.
func SearchField(cur, ref *frame.Frame, mbx, mby, rv, rangeHalf int, cands ...MV) (MV, bool, int) {
	best := MV{}
	bestSel := false
	bestSAD := 1 << 30
	try := func(mv MV, sel bool) {
		if mv.X > rangeHalf || mv.X < -rangeHalf || mv.Y > rangeHalf || mv.Y < -rangeHalf {
			return
		}
		// Stay inside the reference field.
		ix, iy := mbx*16+(mv.X>>1), mby*8+(mv.Y>>1)
		if ix < 0 || iy < 0 || ix+16+(mv.X&1) > ref.CodedW || iy+8+(mv.Y&1) > ref.CodedH/2 {
			return
		}
		if sad := SADField(cur, ref, mbx, mby, rv, sel, mv, bestSAD); sad < bestSAD {
			best, bestSel, bestSAD = mv, sel, sad
		}
	}
	for _, sel := range []bool{false, true} {
		try(MV{}, sel)
		for _, c := range cands {
			base := MV{c.X &^ 1, c.Y &^ 1}
			for dy := -2; dy <= 2; dy++ {
				for dx := -2; dx <= 2; dx++ {
					try(MV{base.X + dx, base.Y + dy}, sel)
				}
			}
		}
	}
	return best, bestSel, bestSAD
}
