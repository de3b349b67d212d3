package mpeg2

import (
	"fmt"
	mathbits "math/bits"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/motion"
	"mpeg2par/internal/vlc"
)

// cbpBit returns the coded_block_pattern mask bit for block i (0..5).
func cbpBit(i int) int { return 1 << uint(5-i) }

// deriveCBP computes the coded block pattern from non-zero blocks.
func deriveCBP(blocks *[6][64]int32) int {
	cbp := 0
	for i := 0; i < 6; i++ {
		for _, v := range blocks[i] {
			if v != 0 {
				cbp |= cbpBit(i)
				break
			}
		}
	}
	return cbp
}

// EncodeSlice writes one slice: the slice startcode for row, the slice
// header with qscaleCode, and the given macroblocks. mbs must be sorted by
// Addr, all within row, with the first and last not skipped. Macroblocks
// marked Skipped are encoded as address gaps; the caller must have built
// them to satisfy the skip semantics (validated here).
func EncodeSlice(w *bits.Writer, p *PictureParams, row, qscaleCode int, mbs []MB) error {
	return encodeSliceMBs(w, p, row, qscaleCode, mbs, false)
}

// EncodeSliceSpan writes one slice whose macroblocks may continue past
// row into the rows below (the general slice structure of §6.1.2.2):
// the startcode still names the first row, but addresses only have to
// stay inside the picture and increase. This is how tall slices — up to
// one slice per picture — are produced.
func EncodeSliceSpan(w *bits.Writer, p *PictureParams, row, qscaleCode int, mbs []MB) error {
	return encodeSliceMBs(w, p, row, qscaleCode, mbs, true)
}

func encodeSliceMBs(w *bits.Writer, p *PictureParams, row, qscaleCode int, mbs []MB, span bool) error {
	if err := p.validate(); err != nil {
		return err
	}
	if row < 0 || row >= p.MBHeight || row+1 > SliceStartMax {
		return fmt.Errorf("mpeg2: slice row %d not encodable", row)
	}
	if len(mbs) == 0 {
		return fmt.Errorf("mpeg2: empty slice at row %d", row)
	}
	if qscaleCode < 1 || qscaleCode > 31 {
		return fmt.Errorf("mpeg2: slice quantiser_scale_code %d out of range", qscaleCode)
	}
	if mbs[0].Skipped || mbs[len(mbs)-1].Skipped {
		return fmt.Errorf("mpeg2: first/last macroblock of a slice cannot be skipped")
	}

	w.StartCode(byte(row + 1))
	w.Put(uint32(qscaleCode), 5)
	w.Put(0, 1) // extra_bit_slice

	var st sliceState
	st.init(p, qscaleCode)
	prevAddr := row*p.MBWidth - 1
	prevDir := vlc.MBType{}
	for i := range mbs {
		mb := &mbs[i]
		if span {
			if mb.Addr/p.MBWidth < row || mb.Addr >= p.MBWidth*p.MBHeight {
				return fmt.Errorf("mpeg2: macroblock %d outside slice span starting at row %d", mb.Addr, row)
			}
		} else if mb.Addr/p.MBWidth != row {
			return fmt.Errorf("mpeg2: macroblock %d outside slice row %d", mb.Addr, row)
		}
		if mb.Addr <= prevAddr {
			return fmt.Errorf("mpeg2: macroblock addresses not increasing at %d", mb.Addr)
		}
		if mb.Skipped {
			if err := validateSkip(p, &st, prevDir, mb); err != nil {
				return err
			}
			// Decoder-visible state for a skipped macroblock.
			st.resetDC()
			if p.Type == vlc.CodingP {
				st.resetPMV()
			}
			continue
		}
		if err := vlc.EncodeMBAddrInc(w, mb.Addr-prevAddr); err != nil {
			return err
		}
		prevAddr = mb.Addr
		if err := encodeMB(w, p, &st, mb); err != nil {
			return fmt.Errorf("mpeg2: macroblock %d: %w", mb.Addr, err)
		}
		prevDir = vlc.MBType{MotionForward: mb.Type.MotionForward, MotionBackward: mb.Type.MotionBackward}
	}
	return nil
}

func validateSkip(p *PictureParams, st *sliceState, prevDir vlc.MBType, mb *MB) error {
	if mb.FieldMotion || mb.FieldDCT {
		return fmt.Errorf("mpeg2: skipped macroblocks always use frame prediction and carry no DCT")
	}
	switch p.Type {
	case vlc.CodingI:
		return fmt.Errorf("mpeg2: skipped macroblock in I picture")
	case vlc.CodingP:
		if mb.MVFwd != motion.Zero || mb.Type.Intra || mb.Type.Pattern {
			return fmt.Errorf("mpeg2: P-picture skip requires zero vector and no residual")
		}
	case vlc.CodingB:
		if mb.Type.Intra || mb.Type.Pattern {
			return fmt.Errorf("mpeg2: B-picture skip cannot carry residual")
		}
		if !prevDir.MotionForward && !prevDir.MotionBackward {
			return fmt.Errorf("mpeg2: B-picture skip after non-predicted macroblock")
		}
		if mb.Type.MotionForward != prevDir.MotionForward || mb.Type.MotionBackward != prevDir.MotionBackward {
			return fmt.Errorf("mpeg2: B-picture skip must repeat previous prediction mode")
		}
		if prevDir.MotionForward && mb.MVFwd != (motion.MV{X: st.pmv[0][0][0], Y: st.pmv[0][0][1]}) {
			return fmt.Errorf("mpeg2: B-picture skip must repeat forward vector")
		}
		if prevDir.MotionBackward && mb.MVBwd != (motion.MV{X: st.pmv[0][1][0], Y: st.pmv[0][1][1]}) {
			return fmt.Errorf("mpeg2: B-picture skip must repeat backward vector")
		}
	}
	return nil
}

func encodeMB(w *bits.Writer, p *PictureParams, st *sliceState, mb *MB) error {
	t := mb.Type
	cbp := 0
	if t.Pattern {
		cbp = deriveCBP(&mb.Blocks)
		if cbp == 0 {
			return fmt.Errorf("mpeg2: pattern flag set but no coded blocks")
		}
	}
	t.Quant = mb.QScaleCode != st.qscale
	if err := vlc.EncodeMBType(w, p.Type, t); err != nil {
		return err
	}
	// Macroblock modes (§6.3.17.1). With frame_pred_frame_dct=1 there is
	// no motion_type or dct_type field: frame prediction and frame DCT
	// are implied.
	hasMotion := t.MotionForward || t.MotionBackward
	if !p.FramePredFrameDCT {
		if hasMotion {
			if mb.FieldMotion {
				w.Put(0b01, 2) // frame_motion_type: field-based
			} else {
				w.Put(0b10, 2) // frame_motion_type: frame-based
			}
		}
		if t.Intra || t.Pattern {
			putFlag(w, mb.FieldDCT)
		}
	} else if mb.FieldMotion || mb.FieldDCT {
		return fmt.Errorf("mpeg2: field coding requires frame_pred_frame_dct=0")
	}
	if t.Quant {
		if mb.QScaleCode < 1 || mb.QScaleCode > 31 {
			return fmt.Errorf("mpeg2: quantiser_scale_code %d out of range", mb.QScaleCode)
		}
		w.Put(uint32(mb.QScaleCode), 5)
		st.qscale = mb.QScaleCode
	}
	writeVectors := func(dir int, mv1, mv2 motion.MV, sel [2]bool) error {
		if !mb.FieldMotion {
			return st.encodeMV(w, dir, mv1)
		}
		for rv, v := range [2]motion.MV{mv1, mv2} {
			putFlag(w, sel[rv])
			if err := st.encodeVector(w, rv, dir, v, true); err != nil {
				return err
			}
		}
		return nil
	}
	if t.MotionForward {
		if err := writeVectors(0, mb.MVFwd, mb.MVFwd2, mb.FieldSelFwd); err != nil {
			return err
		}
	}
	if t.MotionBackward {
		if err := writeVectors(1, mb.MVBwd, mb.MVBwd2, mb.FieldSelBwd); err != nil {
			return err
		}
	}
	if t.Pattern {
		if err := vlc.EncodeCBP(w, cbp); err != nil {
			return err
		}
	}

	// State side effects mirrored from the decoder.
	if !t.Intra {
		st.resetDC()
	}
	if t.Intra {
		st.resetPMV()
	} else if p.Type == vlc.CodingP && !t.MotionForward {
		if mb.MVFwd != motion.Zero {
			return fmt.Errorf("mpeg2: P macroblock without forward vector must carry zero vector")
		}
		st.resetPMV()
	}

	if t.Intra {
		for i := 0; i < 6; i++ {
			cc, luma := blockComponent(i)
			if err := st.encodeBlock(w, &mb.Blocks[i], true, cc, luma); err != nil {
				return err
			}
		}
	} else if t.Pattern {
		for i := 0; i < 6; i++ {
			if cbp&cbpBit(i) == 0 {
				continue
			}
			cc, luma := blockComponent(i)
			if err := st.encodeBlock(w, &mb.Blocks[i], false, cc, luma); err != nil {
				return err
			}
		}
	}
	return nil
}

// blockComponent maps block index to DC-predictor component and luma flag.
func blockComponent(i int) (cc int, luma bool) {
	switch {
	case i < 4:
		return 0, true
	case i == 4:
		return 1, false
	default:
		return 2, false
	}
}

// DecodedSlice is the result of decoding one slice.
type DecodedSlice struct {
	Row        int
	QScaleCode int  // slice header value
	MBs        []MB // includes synthesized entries for skipped macroblocks
}

// DecodeSlice parses one slice. The reader must be positioned just after
// the slice startcode; row is derived from that startcode (value-1).
// Skipped macroblocks are materialized in the result with their resolved
// prediction semantics so the reconstruction layer needs no bitstream
// state.
func DecodeSlice(r *bits.Reader, p *PictureParams, row int) (DecodedSlice, error) {
	return DecodeSliceInto(r, p, row, nil)
}

// DecodeSliceInto is DecodeSlice decoding into buf (length-reset first,
// capacity reused), so a decode worker can recycle one macroblock buffer
// across slices instead of allocating per slice. The returned
// DecodedSlice.MBs aliases buf's backing array. When a slot is recycled,
// its Blocks are NOT cleared: block contents are defined only for intra
// macroblocks and for blocks whose CBP bit is set (which decodeBlock
// zero-fills before writing) — exactly the blocks reconstruction reads.
func DecodeSliceInto(r *bits.Reader, p *PictureParams, row int, buf []MB) (DecodedSlice, error) {
	return DecodeSliceBounded(r, p, row, p.MBWidth*p.MBHeight-1, buf)
}

// DecodeSliceBounded is DecodeSliceInto with an explicit inclusive
// macroblock address bound. Parallel slice decoders derive the bound
// from the scanned stream geometry so concurrently decoded slices write
// disjoint address ranges even on damaged streams; maxAddr may extend
// past the startcode row for tall (multi-row) slices.
func DecodeSliceBounded(r *bits.Reader, p *PictureParams, row, maxAddr int, buf []MB) (DecodedSlice, error) {
	ds, _, err := DecodeSliceHead(r, p, row, maxAddr, 0, nil, buf)
	return ds, err
}

// DecodeSliceHead is the general slice decode entry point: the reader
// must be positioned just after the slice startcode whose value is
// row+1. Decoding stops cleanly when the bit position reaches endBit
// (0 decodes to the end of the slice). capture, when non-nil, is called
// at every coded-macroblock boundary after the first with the bit
// offset and predictive state there — the hook the split-index builder
// records row crossings through. The returned SegmentEnd carries the
// exit state, exit bit offset, and whether the slice's end was reached.
func DecodeSliceHead(r *bits.Reader, p *PictureParams, row, maxAddr int, endBit int64, capture func(bitOff int64, s SplitState), buf []MB) (DecodedSlice, SegmentEnd, error) {
	ds := DecodedSlice{Row: row, MBs: buf[:0]}
	if err := p.validate(); err != nil {
		return ds, SegmentEnd{}, err
	}
	if row < 0 || row >= p.MBHeight {
		return ds, SegmentEnd{}, fmt.Errorf("mpeg2: slice row %d outside picture", row)
	}
	if maxAddr < row*p.MBWidth || maxAddr > p.MBWidth*p.MBHeight-1 {
		return ds, SegmentEnd{}, fmt.Errorf("mpeg2: slice address bound %d not decodable for row %d", maxAddr, row)
	}
	qs := int(r.Read(5))
	if qs == 0 {
		return ds, SegmentEnd{}, fmt.Errorf("mpeg2: slice quantiser_scale_code 0 is forbidden")
	}
	ds.QScaleCode = qs
	for r.ReadBit() { // extra_information_slice
		r.Skip(8)
	}
	var st sliceState
	st.init(p, qs)
	run := sliceRun{maxAddr: maxAddr, endBit: endBit, capture: capture}
	mbs, end, err := decodeSliceRun(r, p, &st, row*p.MBWidth-1, true, vlc.MBType{}, ds.MBs, run)
	ds.MBs = mbs
	return ds, end, err
}

// sliceRun bounds one invocation of the shared macroblock decode loop.
type sliceRun struct {
	maxAddr int   // inclusive macroblock address bound
	endBit  int64 // >0: stop cleanly when the bit position reaches it
	maxMBs  int   // >0: stop after this many coded macroblocks (probing)
	capture func(bitOff int64, s SplitState)
}

// decodeSliceRun is the macroblock loop shared by whole-slice, bounded,
// and mid-slice segment decodes.
func decodeSliceRun(r *bits.Reader, p *PictureParams, st *sliceState, prevAddr int, firstMB bool, prevDir vlc.MBType, mbs []MB, run sliceRun) ([]MB, SegmentEnd, error) {
	coded := 0
	for {
		if run.endBit > 0 && r.BitPos() >= run.endBit {
			return mbs, SegmentEnd{State: snapshotSplit(st, prevAddr, prevDir), BitOff: r.BitPos()}, nil
		}
		if run.maxMBs > 0 && coded >= run.maxMBs {
			return mbs, SegmentEnd{State: snapshotSplit(st, prevAddr, prevDir), BitOff: r.BitPos()}, nil
		}
		if run.capture != nil && !firstMB {
			run.capture(r.BitPos(), snapshotSplit(st, prevAddr, prevDir))
		}
		inc, err := vlc.DecodeMBAddrInc(r)
		if err != nil {
			return mbs, SegmentEnd{}, err
		}
		if !firstMB && inc > 1 {
			// Materialize skipped macroblocks.
			for k := 1; k < inc; k++ {
				addr := prevAddr + k
				if addr > run.maxAddr {
					return mbs, SegmentEnd{}, fmt.Errorf("mpeg2: skipped macroblock address %d outside slice bounds", addr)
				}
				mbs = growMBs(mbs)
				if err := synthesizeSkip(p, st, prevDir, addr, &mbs[len(mbs)-1]); err != nil {
					return mbs, SegmentEnd{}, err
				}
			}
			st.resetDC()
			if p.Type == vlc.CodingP {
				st.resetPMV()
			}
		}
		addr := prevAddr + inc
		if addr > run.maxAddr {
			return mbs, SegmentEnd{}, fmt.Errorf("mpeg2: macroblock address %d outside slice bounds (max %d)", addr, run.maxAddr)
		}
		mbs = growMBs(mbs)
		mb := &mbs[len(mbs)-1]
		mb.Addr, mb.QScaleCode = addr, st.qscale
		if err := decodeMB(r, p, st, mb); err != nil {
			return mbs, SegmentEnd{}, fmt.Errorf("mpeg2: macroblock %d: %w", addr, err)
		}
		prevAddr = addr
		firstMB = false
		coded++
		prevDir = vlc.MBType{MotionForward: mb.Type.MotionForward, MotionBackward: mb.Type.MotionBackward}
		if err := r.Err(); err != nil {
			return mbs, SegmentEnd{}, err
		}
		// End of slice: 23 zero bits signal byte stuffing + the next
		// startcode prefix (§6.2.4).
		if r.Peek(23) == 0 || r.Remaining() == 0 {
			return mbs, SegmentEnd{State: snapshotSplit(st, prevAddr, prevDir), BitOff: r.BitPos(), AtEnd: true}, nil
		}
	}
}

// growMBs extends mbs by one element. Within capacity, the recycled
// slot's header fields are cleared but its Blocks are left stale (see
// DecodeSliceInto for why that is safe); past capacity, append provides
// a fully zeroed element.
func growMBs(mbs []MB) []MB {
	if len(mbs) < cap(mbs) {
		mbs = mbs[:len(mbs)+1]
		mbs[len(mbs)-1].resetHeader()
		return mbs
	}
	return append(mbs, MB{})
}

// resetHeader clears every MB field except Blocks.
func (mb *MB) resetHeader() {
	mb.Addr = 0
	mb.Type = vlc.MBType{}
	mb.QScaleCode = 0
	mb.MVFwd, mb.MVBwd = motion.MV{}, motion.MV{}
	mb.CBP = 0
	mb.Skipped = false
	mb.FieldMotion, mb.FieldDCT = false, false
	mb.MVFwd2, mb.MVBwd2 = motion.MV{}, motion.MV{}
	mb.FieldSelFwd, mb.FieldSelBwd = [2]bool{}, [2]bool{}
	mb.NNZ = [6]uint8{}
	mb.Mask = [6]uint64{}
	mb.SparseValid = false
}

func synthesizeSkip(p *PictureParams, st *sliceState, prevDir vlc.MBType, addr int, mb *MB) error {
	mb.Addr, mb.QScaleCode, mb.Skipped = addr, st.qscale, true
	mb.SparseValid = true // no coded blocks, so the zero NNZ is exact
	switch p.Type {
	case vlc.CodingP:
		mb.Type = vlc.MBType{MotionForward: true}
		mb.MVFwd = motion.Zero
	case vlc.CodingB:
		if !prevDir.MotionForward && !prevDir.MotionBackward {
			return fmt.Errorf("mpeg2: B skip at %d follows unpredicted macroblock", addr)
		}
		// A skipped B macroblock predicts frame-based from the first
		// PMVs regardless of how the previous macroblock was coded.
		mb.Type = prevDir
		if prevDir.MotionForward {
			mb.MVFwd = motion.MV{X: st.pmv[0][0][0], Y: st.pmv[0][0][1]}
		}
		if prevDir.MotionBackward {
			mb.MVBwd = motion.MV{X: st.pmv[0][1][0], Y: st.pmv[0][1][1]}
		}
	default:
		return fmt.Errorf("mpeg2: skipped macroblock at %d in I picture", addr)
	}
	return nil
}

func decodeMB(r *bits.Reader, p *PictureParams, st *sliceState, mb *MB) error {
	err := st.decodeHeader(r, mb)
	if err != nil {
		return err
	}
	t := mb.Type
	cbp := 0
	if t.Pattern {
		cbp, err = vlc.DecodeCBP(r)
		if err != nil {
			return err
		}
		if cbp == 0 {
			return fmt.Errorf("mpeg2: coded_block_pattern 0 in 4:2:0")
		}
	}
	mb.CBP = cbp

	if !t.Intra {
		st.resetDC()
	}
	if t.Intra {
		st.resetPMV()
	} else if p.Type == vlc.CodingP && !t.MotionForward {
		st.resetPMV()
	}

	mb.SparseValid = true
	if t.Intra {
		mb.CBP = 0x3F
	}
	for i := 0; i < 6; i++ {
		if mb.CBP&cbpBit(i) == 0 {
			continue
		}
		cc, luma := blockComponent(i)
		mask, err := st.decodeBlock(r, &mb.Blocks[i], t.Intra, cc, luma)
		if err != nil {
			return err
		}
		mb.Mask[i], mb.NNZ[i] = mask, uint8(mathbits.OnesCount64(mask))
	}
	return r.Err()
}
