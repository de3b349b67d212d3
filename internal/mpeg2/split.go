package mpeg2

import (
	"fmt"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/vlc"
)

// SplitState is the complete predictive state of the slice-layer VLD at
// a macroblock boundary inside a slice: everything a decoder needs to
// resume parsing mid-slice as if it had decoded every earlier macroblock
// itself. It is the predictor-state contract of the intra-slice split
// index (internal/vldsplit): macroblock parse *lengths* depend only on
// the picture parameters, but reconstructed *values* depend on this
// state, so a split point records it exactly.
type SplitState struct {
	// PrevAddr is the address of the last macroblock (coded or skipped)
	// before the boundary; the next address increment is relative to it.
	PrevAddr int
	// QScale is the quantiser_scale_code in effect.
	QScale int
	// DCPred holds the intra DC predictors (luma, Cb, Cr).
	DCPred [3]int32
	// PMV holds the motion vector predictors (§7.6.3), vertical
	// components at frame scale.
	PMV [2][2][2]int
	// PrevFwd/PrevBwd record the previous macroblock's prediction
	// directions — the state B-picture skip runs chain on.
	PrevFwd bool
	PrevBwd bool
}

// snapshotSplit captures the running slice state as a SplitState.
func snapshotSplit(st *sliceState, prevAddr int, prevDir vlc.MBType) SplitState {
	return SplitState{
		PrevAddr: prevAddr,
		QScale:   st.qscale,
		DCPred:   st.dcPred,
		PMV:      st.pmv,
		PrevFwd:  prevDir.MotionForward,
		PrevBwd:  prevDir.MotionBackward,
	}
}

// restore loads the split state into a running slice state, returning
// the loop variables the decode resumes with.
func (s *SplitState) restore(st *sliceState, p *PictureParams) (prevAddr int, prevDir vlc.MBType) {
	st.bind(p)
	st.qscale = s.QScale
	st.dcPred = s.DCPred
	st.pmv = s.PMV
	return s.PrevAddr, vlc.MBType{MotionForward: s.PrevFwd, MotionBackward: s.PrevBwd}
}

// SegmentEnd describes where and how a (partial) slice decode stopped.
type SegmentEnd struct {
	// State is the predictive state at the stop point — what the next
	// segment's recorded (or guessed) entry state must equal exactly for
	// a split decode to be valid.
	State SplitState
	// BitOff is the reader's absolute bit position at the stop point.
	BitOff int64
	// AtEnd reports that the slice's end (23-zero-bit next-startcode
	// sentinel or end of data) was reached, rather than the endBit limit.
	AtEnd bool
}

// DecodeSliceSegment resumes a slice mid-stream: the reader must be
// positioned at a macroblock boundary (a split point's bit offset) and
// entry must be the predictive state recorded or guessed for that
// boundary. Decoding stops cleanly once the bit position reaches endBit
// (0 decodes to the end of the slice); macroblock addresses above
// maxAddr are an error, which confines a segment decoded from a wrong
// guess to its own address range. The returned end state is compared
// against the next split point's entry state to verify the split.
func DecodeSliceSegment(r *bits.Reader, p *PictureParams, entry SplitState, maxAddr int, endBit int64, buf []MB) (DecodedSlice, SegmentEnd, error) {
	ds := DecodedSlice{MBs: buf[:0]}
	if err := p.validate(); err != nil {
		return ds, SegmentEnd{}, err
	}
	if entry.QScale < 1 || entry.QScale > 31 {
		return ds, SegmentEnd{}, fmt.Errorf("mpeg2: split entry quantiser_scale_code %d out of range", entry.QScale)
	}
	if entry.PrevAddr < 0 || entry.PrevAddr >= maxAddr {
		return ds, SegmentEnd{}, fmt.Errorf("mpeg2: split entry address %d outside segment bounds", entry.PrevAddr)
	}
	var st sliceState
	prevAddr, prevDir := entry.restore(&st, p)
	ds.Row = (prevAddr + 1) / p.MBWidth
	ds.QScaleCode = entry.QScale
	mbs, end, err := decodeSliceRun(r, p, &st, prevAddr, false, prevDir, ds.MBs, sliceRun{maxAddr: maxAddr, endBit: endBit})
	ds.MBs = mbs
	return ds, end, err
}

// ProbeSliceSegment trial-parses up to maxMBs macroblocks from the
// current reader position under the given entry state, reporting only
// whether the bits parse cleanly — the speculative split's candidate
// filter. buf is recycled scratch; the parsed macroblocks are discarded.
func ProbeSliceSegment(r *bits.Reader, p *PictureParams, entry SplitState, maxAddr, maxMBs int, buf []MB) ([]MB, error) {
	if entry.QScale < 1 || entry.QScale > 31 || entry.PrevAddr < 0 || entry.PrevAddr >= maxAddr {
		return buf, fmt.Errorf("mpeg2: bad probe entry state")
	}
	var st sliceState
	prevAddr, prevDir := entry.restore(&st, p)
	mbs, _, err := decodeSliceRun(r, p, &st, prevAddr, false, prevDir, buf[:0], sliceRun{maxAddr: maxAddr, maxMBs: maxMBs})
	return mbs, err
}
