package decoder

import (
	mathbits "math/bits"

	"mpeg2par/internal/frame"
	"mpeg2par/internal/memtrace"
	"mpeg2par/internal/motion"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/vlc"
)

// ReconSlice reconstructs every macroblock of ds into dst with a fresh
// Scratch and returns the work performed. With a tracer it then replays,
// as processor proc, the references of the macroblocks it reconstructed
// (TraceSlice); tr may be nil.
func ReconSlice(seq *mpeg2.SequenceHeader, ph *mpeg2.PictureHeader, refs Refs, dst *frame.Frame, ds *mpeg2.DecodedSlice, proc int, tr memtrace.Tracer) (WorkStats, error) {
	var sc Scratch
	st, err := sc.ReconSlice(seq, ph, refs, dst, ds)
	if tr != nil {
		done := *ds
		done.MBs = ds.MBs[:st.MBs]
		TraceSlice(seq, ph, refs, dst, &done, proc, tr)
	}
	return st, err
}

// Per-processor scratch regions (coefficient block, a prediction buffer
// for bidirectional macroblocks, VLD state) and the shared read-only
// tables (quantization matrices, VLC lookup tables). These small, hot
// structures are what forms the program's working set — the frame planes
// mostly stream through the cache — so the locality figures need them in
// the trace.
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

// TraceSlice replays the memory references that reconstructing ds into
// dst made, macroblock by macroblock in reconstruction order, as processor
// proc: the trace model of the paper's reference generator, taken after
// the fact so that reconstruction itself carries no tracing hook. Each
// coded block's coefficient count is its nonzero mask's; the prediction
// directions follow from the picture type and the macroblock type, as in
// reconMB.
func TraceSlice(seq *mpeg2.SequenceHeader, ph *mpeg2.PictureHeader, refs Refs, dst *frame.Frame, ds *mpeg2.DecodedSlice, proc int, tr memtrace.Tracer) {
	mbw := seq.MBWidth()
	for i := range ds.MBs {
		mb := &ds.MBs[i]
		mbx, mby := mb.Addr%mbw, mb.Addr/mbw
		if mb.Type.Intra {
			for b := 0; b < 6; b++ {
				traceBlock(proc, true, mathbits.OnesCount64(blockMask(mb, b)), tr)
			}
			traceMBWrite(dst, mbx, mby, proc, tr)
			continue
		}
		fwd, bwd := true, false
		if ph.Type == vlc.CodingB {
			fwd, bwd = mb.Type.MotionForward, mb.Type.MotionBackward
		}
		if fwd {
			traceMCRead(refs.Fwd, mbx, mby, mb.MVFwd, mb.FieldMotion, proc, tr)
		}
		if bwd {
			traceMCRead(refs.Bwd, mbx, mby, mb.MVBwd, mb.FieldMotion, proc, tr)
		}
		traceMBWrite(dst, mbx, mby, proc, tr)
		if fwd && bwd {
			traceScratchPred(proc, tr)
			traceMBUpdate(dst, mbx, mby, 0x3F, false, proc, tr)
		}
		for b := 0; b < 6; b++ {
			if mb.CBP&(1<<uint(5-b)) != 0 {
				traceBlock(proc, false, mathbits.OnesCount64(blockMask(mb, b)), tr)
			}
		}
		traceMBUpdate(dst, mbx, mby, mb.CBP, mb.FieldDCT, proc, tr)
	}
}

// traceBlock records the hot-structure traffic of decoding one 8×8 block:
// VLC table lookups during VLD, the quantization matrix read, and the
// dequant + two IDCT passes over the coefficient buffer.
func traceBlock(proc int, intra bool, coefs int, tr memtrace.Tracer) {
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

// traceScratchPred records the prediction-buffer traffic the model
// charges one bidirectional macroblock: the backward prediction written
// to the processor's scratch region and read back by the average. The
// decoder has no such buffer any more (the backward prediction is averaged
// into the frame in registers), but the model keeps it, so the reference
// stream stays the one TestTraceGeneratorMatchesRecord pins. No other
// macroblock touches the buffer.
func traceScratchPred(proc int, tr memtrace.Tracer) {
	sb := scratchBase(tr, proc)
	tr.Access(proc, sb+scratchPred, 384, true)
	tr.Access(proc, sb+scratchPred, 384, false)
}

// traceMBWrite records the destination extents one macroblock's worth of
// pixels is written to — by the intra stores, or by motion compensation
// predicting straight into the frame: 16 luma rows of 16 bytes and 8+8
// chroma rows of 8 bytes.
func traceMBWrite(dst *frame.Frame, mbx, mby, proc int, tr memtrace.Tracer) {
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
// of a bidirectional macroblock with the modelled prediction buffer.
func traceMBUpdate(dst *frame.Frame, mbx, mby, blocks int, fieldDCT bool, proc int, tr memtrace.Tracer) {
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
// a (16+hx)×(16+hy) luma region and two half-size chroma regions. Field
// motion reads are approximated with the frame-scaled first vector.
func traceMCRead(ref *frame.Frame, mbx, mby int, mv motion.MV, fieldMotion bool, proc int, tr memtrace.Tracer) {
	if fieldMotion {
		mv.Y *= 2
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
