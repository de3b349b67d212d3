// Package decoder implements MPEG-2 video picture reconstruction and a
// sequential elementary-stream decoder.
//
// The slice reconstruction entry point (ReconSlice) is deliberately free
// of decoder state: it takes the picture parameters, the two reference
// frames and a destination frame, so the parallel implementations in
// internal/core can call it concurrently from many workers — slices of one
// picture touch disjoint destination rows, and reference frames are
// read-only by construction.
package decoder

import (
	"fmt"
	mathbits "math/bits"

	"mpeg2par/internal/dct"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/memtrace"
	"mpeg2par/internal/motion"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/quant"
	"mpeg2par/internal/vlc"
)

// Refs holds the reference frames for prediction. For P pictures only Fwd
// is used (the most recent reference); for B pictures Fwd is the past and
// Bwd the future reference.
type Refs struct {
	Fwd, Bwd *frame.Frame
}

// WorkStats counts the work a reconstruction performed; the deterministic
// scheduler uses these as its pixie-style "ideal time" work units.
type WorkStats struct {
	MBs         int // macroblocks reconstructed
	IntraBlocks int // intra-coded blocks (full IDCT path)
	CodedBlocks int // non-intra coded blocks (IDCT + add)
	Coefs       int // non-zero coefficients dequantized
	PredMBs     int // motion-compensated macroblocks
	BidirMBs    int // macroblocks averaged from two predictions
}

// Add accumulates other into s.
func (s *WorkStats) Add(other WorkStats) {
	s.MBs += other.MBs
	s.IntraBlocks += other.IntraBlocks
	s.CodedBlocks += other.CodedBlocks
	s.Coefs += other.Coefs
	s.PredMBs += other.PredMBs
	s.BidirMBs += other.BidirMBs
}

// PictureParams derives the slice-layer parameters from the headers.
func PictureParams(seq *mpeg2.SequenceHeader, ph *mpeg2.PictureHeader) mpeg2.PictureParams {
	return mpeg2.PictureParams{
		MBWidth:           seq.MBWidth(),
		MBHeight:          seq.MBHeight(),
		Type:              ph.Type,
		FCode:             ph.FCode,
		IntraDCPrecision:  ph.IntraDCPrecision,
		QScaleType:        ph.QScaleType,
		IntraVLCFormat:    ph.IntraVLCFormat,
		AlternateScan:     ph.AlternateScan,
		FramePredFrameDCT: ph.FramePredFrameDCT,
	}
}

// ReconSlice reconstructs every macroblock of ds into dst. proc and tr are
// the tracing hooks (tr may be nil). It returns the work performed.
func ReconSlice(seq *mpeg2.SequenceHeader, ph *mpeg2.PictureHeader, refs Refs, dst *frame.Frame, ds *mpeg2.DecodedSlice, proc int, tr memtrace.Tracer) (WorkStats, error) {
	var st WorkStats
	if ph.Type != vlc.CodingI && refs.Fwd == nil {
		return st, fmt.Errorf("decoder: %s picture without forward reference", ph.Type)
	}
	if ph.Type == vlc.CodingB && refs.Bwd == nil {
		return st, fmt.Errorf("decoder: B picture without backward reference")
	}
	mbw := seq.MBWidth()
	var sc reconScratch
	for i := range ds.MBs {
		mb := &ds.MBs[i]
		mbx, mby := mb.Addr%mbw, mb.Addr/mbw
		if err := reconMB(seq, ph, refs, dst, mb, mbx, mby, &sc, &st, proc, tr); err != nil {
			return st, fmt.Errorf("decoder: macroblock %d: %w", mb.Addr, err)
		}
		st.MBs++
	}
	return st, nil
}

// denseKernels forces the dense quant.Inverse + dct.Inverse pair in place
// of the sparsity-aware kernels. The golden tests flip it to prove both
// paths reconstruct bit-identical frames; it stays false in production.
var denseKernels = false

// inverseBlock runs dequantization plus IDCT on one coded block and returns
// how many quantized coefficients it held. mask must name exactly the
// nonzero ones (quant.InverseMasked walks it).
func inverseBlock(blk *[64]int32, p quant.Params, mask uint64) int {
	if denseKernels {
		quant.Inverse(blk, p)
		dct.Inverse(blk)
	} else {
		rowMask, dcOnly := quant.InverseMasked(blk, p, mask)
		dct.InverseSparse(blk, rowMask, dcOnly)
	}
	return mathbits.OnesCount64(mask)
}

// blockMask returns the nonzero-coefficient mask of block b, trusting the
// VLC stage's record when present and rescanning otherwise (hand-built
// macroblocks in tests, synthetic streams).
func blockMask(mb *mpeg2.MB, b int) uint64 {
	if mb.SparseValid {
		return mb.Mask[b]
	}
	return quant.Mask(&mb.Blocks[b], 64)
}

// reconScratch is what ReconSlice keeps for its macroblocks: the
// prediction buffer a bidirectional macroblock averages from, and the
// dequantization tables of dct.ReconBlock, which change with
// quantiser_scale only.
type reconScratch struct {
	pred         motion.MBPred
	intra, inter dct.Dequant
}

// reconBlock reconstructs coded block b of mb into dst — an intra block
// stored, a predicted one added to the prediction already there — and
// returns how many quantized coefficients it held. On the asm tier that is
// one dct.ReconBlock call on the quantized block itself; elsewhere a copy
// of the block goes through dequantization, IDCT and a store.
func reconBlock(dst *frame.Frame, mb *mpeg2.MB, b, mbx, mby int, p quant.Params, dq *dct.Dequant) int {
	mask := blockMask(mb, b)
	if asmBlock {
		plane, x, y, stride, step := blockGeometry(dst, mbx, mby, b, mb.FieldDCT)
		o, rs := y*stride+x, step*stride
		_ = plane[o+7*rs+7] // one bounds check for the whole block
		dct.ReconBlock(&plane[o], rs, &mb.Blocks[b], dq, !p.Intra)
		return mathbits.OnesCount64(mask)
	}
	blk := mb.Blocks[b]
	nz := inverseBlock(&blk, p, mask)
	if p.Intra {
		storeIntraBlock(dst, &blk, mbx, mby, b, mb.FieldDCT)
	} else {
		storePredBlock(dst, &blk, mbx, mby, b, mb.FieldDCT)
	}
	return nz
}

// reconMB reconstructs one macroblock into dst. A predicted pixel is
// written once: motion compensation goes straight into dst (a
// bidirectional macroblock: forward into dst, backward into scratch, then
// dst = avg(dst, scratch)), so an uncoded block costs nothing more and a
// coded one is an in-place clamped residual add. Whether the macroblock
// can be predicted at all is decided before dst is touched, so a rejected
// macroblock leaves the frame as it found it.
func reconMB(seq *mpeg2.SequenceHeader, ph *mpeg2.PictureHeader, refs Refs, dst *frame.Frame, mb *mpeg2.MB, mbx, mby int, sc *reconScratch, st *WorkStats, proc int, tr memtrace.Tracer) error {
	scale := quant.Scale(mb.QScaleCode, ph.QScaleType)
	if mb.Type.Intra {
		p := quant.Params{Matrix: &seq.IntraMatrix, Scale: scale, Intra: true, DCPrecision: ph.IntraDCPrecision}
		sc.intra.Set(p.Matrix, scale, quant.IntraDCMult(p.DCPrecision))
		for b := 0; b < 6; b++ {
			nz := reconBlock(dst, mb, b, mbx, mby, p, &sc.intra)
			st.Coefs += nz
			st.IntraBlocks++
			traceBlock(proc, true, nz, tr)
		}
		traceMBWrite(dst, mbx, mby, proc, tr)
		return nil
	}

	// A P macroblock without a forward vector predicts with the zero
	// vector (mb.MVFwd is zero in that case by construction).
	fwd, bwd := true, false
	switch ph.Type {
	case vlc.CodingP:
	case vlc.CodingB:
		if fwd, bwd = mb.Type.MotionForward, mb.Type.MotionBackward; !fwd && !bwd {
			return fmt.Errorf("B macroblock with no prediction direction")
		}
	default:
		return fmt.Errorf("non-intra macroblock in I picture")
	}
	switch {
	case fwd && bwd:
		predictMB(dst, nil, refs.Fwd, mb, mbx, mby, false, proc, tr)
		predictMB(dst, &sc.pred, refs.Bwd, mb, mbx, mby, true, proc, tr)
		motion.AverageMBInto(dst, mbx, mby, &sc.pred)
		traceMBWrite(dst, mbx, mby, proc, tr)
		traceScratchPred(proc, tr)
		traceMBUpdate(dst, mbx, mby, 0x3F, false, proc, tr)
		st.BidirMBs++
	case bwd:
		predictMB(dst, nil, refs.Bwd, mb, mbx, mby, true, proc, tr)
		traceMBWrite(dst, mbx, mby, proc, tr)
	default:
		predictMB(dst, nil, refs.Fwd, mb, mbx, mby, false, proc, tr)
		traceMBWrite(dst, mbx, mby, proc, tr)
	}
	st.PredMBs++

	// Add the residual of each coded block to the prediction in place.
	p := quant.Params{Matrix: &seq.NonIntraMatrix, Scale: scale, Intra: false}
	sc.inter.Set(p.Matrix, scale, 0)
	for b := 0; b < 6; b++ {
		if mb.CBP&(1<<uint(5-b)) == 0 {
			continue
		}
		nz := reconBlock(dst, mb, b, mbx, mby, p, &sc.inter)
		st.Coefs += nz
		st.CodedBlocks++
		traceBlock(proc, false, nz, tr)
	}
	traceMBUpdate(dst, mbx, mby, mb.CBP, mb.FieldDCT, proc, tr)
	return nil
}

// predictMB writes one direction's prediction of mb (backward selects
// MVBwd and its field selects, else forward) from ref straight into the
// macroblock's place in dst — or, for the second direction of a
// bidirectional macroblock, into the scratch buffer when one is given.
// With FieldMotion the direction carries two field vectors (field-unit
// verticals); trace extents approximate the field reads with the
// frame-scaled first vector.
func predictMB(dst *frame.Frame, scratch *motion.MBPred, ref *frame.Frame, mb *mpeg2.MB, mbx, mby int, backward bool, proc int, tr memtrace.Tracer) {
	mv, mv2, sel := mb.MVFwd, mb.MVFwd2, mb.FieldSelFwd
	if backward {
		mv, mv2, sel = mb.MVBwd, mb.MVBwd2, mb.FieldSelBwd
	}
	switch {
	case scratch != nil && mb.FieldMotion:
		motion.PredictMBField(scratch, ref, mbx, mby, sel, mv, mv2)
	case scratch != nil:
		motion.PredictMB(scratch, ref, mbx, mby, mv)
	case mb.FieldMotion:
		motion.PredictMBFieldInto(dst, ref, mbx, mby, sel, mv, mv2)
	default:
		motion.PredictMBInto(dst, ref, mbx, mby, mv)
	}
	if mb.FieldMotion {
		mv.Y *= 2
	}
	traceMCRead(ref, mbx, mby, mv, proc, tr)
}

// blockGeometry returns the destination plane, top-left pixel position,
// stride and row step of block b of the macroblock at (mbx, mby). Under
// field DCT the four luma blocks hold one field each: blocks 0/1 the even
// lines, 2/3 the odd lines, stepping two frame lines per block row.
// Chroma blocks are always frame-organized in 4:2:0.
func blockGeometry(dst *frame.Frame, mbx, mby, b int, fieldDCT bool) (plane []uint8, x, y, stride, rowStep int) {
	if b < 4 {
		x = mbx*16 + (b&1)*8
		if fieldDCT {
			return dst.Y, x, mby*16 + (b >> 1), dst.YStride, 2
		}
		return dst.Y, x, mby*16 + (b>>1)*8, dst.YStride, 1
	}
	if b == 4 {
		return dst.Cb, mbx * 8, mby * 8, dst.CStride, 1
	}
	return dst.Cr, mbx * 8, mby * 8, dst.CStride, 1
}

// scalarStore forces the per-pixel branchy store/clamp loops in place of
// the unrolled branchless kernels. Like denseKernels it exists for the
// golden equivalence tests and stays false in production.
var scalarStore = false

func storeIntraBlock(dst *frame.Frame, blk *[64]int32, mbx, mby, b int, fieldDCT bool) {
	plane, x, y, stride, step := blockGeometry(dst, mbx, mby, b, fieldDCT)
	if scalarStore {
		for r := 0; r < 8; r++ {
			row := plane[(y+r*step)*stride+x:]
			for c := 0; c < 8; c++ {
				row[c] = clampPixelRef(blk[r*8+c])
			}
		}
		return
	}
	if asmStore {
		rs := step * stride
		o := y*stride + x
		_ = plane[o+7*rs+7] // one bounds check for the whole block
		storeIntraBlockAsm(&plane[o], rs, &blk[0])
		return
	}
	for r := 0; r < 8; r++ {
		storeIntraRow8(plane[(y+r*step)*stride+x:], blk[r*8:r*8+8])
	}
}

// storePredBlock adds the residual blk of block b to the prediction that
// motion compensation left in dst and stores the clamped sum back over it:
// every tier reads a row of dst before it writes that row.
func storePredBlock(dst *frame.Frame, blk *[64]int32, mbx, mby, b int, fieldDCT bool) {
	plane, x, y, stride, step := blockGeometry(dst, mbx, mby, b, fieldDCT)
	if scalarStore {
		for r := 0; r < 8; r++ {
			row := plane[(y+r*step)*stride+x:]
			for c := 0; c < 8; c++ {
				row[c] = clampPixelRef(int32(row[c]) + blk[r*8+c])
			}
		}
		return
	}
	if asmStore {
		rs := step * stride
		o := y*stride + x
		_ = plane[o+7*rs+7] // one bounds check for the whole block
		storePredBlockAsm(&plane[o], rs, &blk[0])
		return
	}
	for r := 0; r < 8; r++ {
		storePredRow8(plane[(y+r*step)*stride+x:], blk[r*8:r*8+8])
	}
}

// storeIntraRow8 clamps and stores one unrolled row of eight IDCT outputs.
func storeIntraRow8(row []uint8, res []int32) {
	row = row[:8:8]
	res = res[:8:8]
	row[0] = clampPixel(res[0])
	row[1] = clampPixel(res[1])
	row[2] = clampPixel(res[2])
	row[3] = clampPixel(res[3])
	row[4] = clampPixel(res[4])
	row[5] = clampPixel(res[5])
	row[6] = clampPixel(res[6])
	row[7] = clampPixel(res[7])
}

// storePredRow8 adds one unrolled row of eight residuals to the
// prediction in row and stores the clamped sums over it.
func storePredRow8(row []uint8, res []int32) {
	row = row[:8:8]
	res = res[:8:8]
	row[0] = clampPixel(int32(row[0]) + res[0])
	row[1] = clampPixel(int32(row[1]) + res[1])
	row[2] = clampPixel(int32(row[2]) + res[2])
	row[3] = clampPixel(int32(row[3]) + res[3])
	row[4] = clampPixel(int32(row[4]) + res[4])
	row[5] = clampPixel(int32(row[5]) + res[5])
	row[6] = clampPixel(int32(row[6]) + res[6])
	row[7] = clampPixel(int32(row[7]) + res[7])
}

// clampPixel saturates to [0,255] without branches: the first step zeroes
// negatives (the arithmetic shift spreads the sign bit), the second turns
// any value above 255 into all-ones, which truncates to 255.
func clampPixel(v int32) uint8 {
	v &^= v >> 31
	v |= (255 - v) >> 31
	return uint8(v)
}

// clampPixelRef is the branchy reference clamp the scalar store path and
// the equivalence tests use.
func clampPixelRef(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// --- tracing ---------------------------------------------------------------

// Per-processor scratch regions (coefficient block, the prediction buffer
// bidirectional macroblocks average from, VLD state) and the shared
// read-only tables (quantization matrices, VLC lookup tables). These
// small, hot structures are what forms the program's working set — the
// frame planes mostly stream through the cache — so the locality figures
// need them in the trace.
//
// The VLC region is one DCT coefficient decode table, the table a block
// decode probes once per symbol: vlc.CoefTableBytes, 5 KB. (Before the
// compact tables the model assumed 4 KB while the decoder indexed three
// flat 2^16-entry tables, 3 × 256 KB.)
var (
	scratchKeys [64]byte
	tablesKey   byte
)

const (
	scratchBytes  = 4096
	scratchCoef   = 0    // 256B coefficient block
	scratchPred   = 512  // 384B prediction buffer
	tabQuantIntra = 0    // 64B
	tabQuantInter = 64   // 64B
	tabVLC        = 1024 // VLC lookup region, vlc.CoefTableBytes long
	tablesBytes   = tabVLC + vlc.CoefTableBytes
)

func scratchBase(tr memtrace.Tracer, proc int) uint64 {
	return tr.Base(&scratchKeys[proc&63], scratchBytes)
}

// traceBlock records the hot-structure traffic of decoding one 8×8 block:
// VLC table lookups during VLD, the quantization matrix read, and the
// dequant + two IDCT passes over the coefficient buffer.
func traceBlock(proc int, intra bool, coefs int, tr memtrace.Tracer) {
	if tr == nil {
		return
	}
	sb := scratchBase(tr, proc)
	tb := tr.Base(&tablesKey, tablesBytes)
	// VLD: one 4-byte table probe per coded coefficient, spread over the
	// VLC lookup region (positions vary with the code bits).
	for i := 0; i < coefs; i++ {
		tr.Access(proc, tb+tabVLC+uint64(i*37*4%vlc.CoefTableBytes), 4, false)
	}
	// Dequantization reads the weight matrix and scans the block.
	q := uint64(tabQuantInter)
	if intra {
		q = tabQuantIntra
	}
	tr.Access(proc, tb+q, 64, false)
	// Dequant pass + IDCT row and column passes over the 256B block.
	for pass := 0; pass < 3; pass++ {
		tr.Access(proc, sb+scratchCoef, 256, false)
		tr.Access(proc, sb+scratchCoef, 256, true)
	}
}

// traceScratchPred records the prediction-buffer traffic of one
// bidirectional macroblock: motion compensation writes the backward
// prediction there, the average reads it back. No other macroblock
// touches the buffer: its prediction is written straight into the frame.
func traceScratchPred(proc int, tr memtrace.Tracer) {
	if tr == nil {
		return
	}
	sb := scratchBase(tr, proc)
	tr.Access(proc, sb+scratchPred, 384, true)
	tr.Access(proc, sb+scratchPred, 384, false)
}

// traceMBWrite records the destination extents one macroblock's worth of
// pixels is written to — by the intra stores, or by motion compensation
// predicting straight into the frame: 16 luma rows of 16 bytes and 8+8
// chroma rows of 8 bytes.
func traceMBWrite(dst *frame.Frame, mbx, mby, proc int, tr memtrace.Tracer) {
	if tr == nil {
		return
	}
	yBase := tr.Base(&dst.Y[0], len(dst.Y))
	for r := 0; r < 16; r++ {
		tr.Access(proc, yBase+uint64((mby*16+r)*dst.YStride+mbx*16), 16, true)
	}
	cbBase := tr.Base(&dst.Cb[0], len(dst.Cb))
	crBase := tr.Base(&dst.Cr[0], len(dst.Cr))
	for r := 0; r < 8; r++ {
		off := uint64((mby*8+r)*dst.CStride + mbx*8)
		tr.Access(proc, cbBase+off, 8, true)
		tr.Access(proc, crBase+off, 8, true)
	}
}

// traceMBUpdate records the in-place updates of a predicted macroblock:
// every block in blocks (a coded_block_pattern-ordered mask) has its
// eight 8-byte destination rows read back and written again — the
// clamped residual add of a coded block, or (all six blocks) the average
// of a bidirectional macroblock with the scratch prediction.
func traceMBUpdate(dst *frame.Frame, mbx, mby, blocks int, fieldDCT bool, proc int, tr memtrace.Tracer) {
	if tr == nil {
		return
	}
	for b := 0; b < 6; b++ {
		if blocks&(1<<uint(5-b)) == 0 {
			continue
		}
		plane, x, y, stride, step := blockGeometry(dst, mbx, mby, b, fieldDCT)
		base := tr.Base(&plane[0], len(plane))
		for _, write := range [2]bool{false, true} {
			for r := 0; r < 8; r++ {
				tr.Access(proc, base+uint64((y+r*step)*stride+x), 8, write)
			}
		}
	}
}

// traceMCRead records the reference extents read by motion compensation:
// a (16+hx)×(16+hy) luma region and two half-size chroma regions.
func traceMCRead(ref *frame.Frame, mbx, mby int, mv motion.MV, proc int, tr memtrace.Tracer) {
	if tr == nil {
		return
	}
	yBase := tr.Base(&ref.Y[0], len(ref.Y))
	ix := clampInt(mbx*16+(mv.X>>1), 0, ref.CodedW-17)
	iy := clampInt(mby*16+(mv.Y>>1), 0, ref.CodedH-17)
	w := 16 + mv.X&1
	for r := 0; r < 16+mv.Y&1; r++ {
		tr.Access(proc, yBase+uint64((iy+r)*ref.YStride+ix), w, false)
	}
	c := mv.ChromaMV()
	cw, chH := ref.CodedW/2, ref.CodedH/2
	cx := clampInt(mbx*8+(c.X>>1), 0, cw-9)
	cy := clampInt(mby*8+(c.Y>>1), 0, chH-9)
	cbBase := tr.Base(&ref.Cb[0], len(ref.Cb))
	crBase := tr.Base(&ref.Cr[0], len(ref.Cr))
	cwd := 8 + c.X&1
	for r := 0; r < 8+c.Y&1; r++ {
		off := uint64((cy+r)*ref.CStride + cx)
		tr.Access(proc, cbBase+off, cwd, false)
		tr.Access(proc, crBase+off, cwd, false)
	}
}

func clampInt(v, lo, hi int) int {
	if hi < lo {
		hi = lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
