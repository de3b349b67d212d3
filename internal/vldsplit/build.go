package vldsplit

import (
	"fmt"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/mpeg2"
)

// BuildSlice scans one slice and returns its macroblock-row split
// points: for every coded macroblock that starts a fresh row, the bit
// offset and predictive state entering it. data must be exactly the
// slice's byte range starting at the startcode; row must match the
// startcode and maxAddr is the slice's inclusive address bound (from
// the stream geometry). scratch is a recyclable macroblock buffer;
// the grown buffer is returned for reuse.
func BuildSlice(data []byte, p *mpeg2.PictureParams, row, maxAddr int, scratch []mpeg2.MB) ([]Point, []mpeg2.MB, error) {
	var r bits.Reader
	r.Reset(data)
	code, err := r.ReadStartCode()
	if err != nil {
		return nil, scratch, err
	}
	if int(code)-1 != row {
		return nil, scratch, fmt.Errorf("vldsplit: slice startcode row %d, expected %d", int(code)-1, row)
	}
	var pts []Point
	mbw := p.MBWidth
	ds, _, err := mpeg2.DecodeSliceHead(&r, p, row, maxAddr, 0, func(off int64, s mpeg2.SplitState) {
		if (s.PrevAddr+1)%mbw == 0 {
			pts = append(pts, Point{BitOff: off, State: s})
		}
	}, scratch)
	if err != nil {
		return nil, ds.MBs, err
	}
	return pts, ds.MBs, nil
}

// SelectPoints thins a slice's split points to at most parts-1 evenly
// spaced boundaries, giving parts segments of roughly equal row counts.
func SelectPoints(pts []Point, parts int) []Point {
	if parts < 2 || len(pts) == 0 {
		return nil
	}
	if len(pts) <= parts-1 {
		return pts
	}
	out := make([]Point, 0, parts-1)
	n := len(pts) + 1 // row-segments available
	for k := 1; k < parts; k++ {
		i := k*n/parts - 1
		if i < 0 {
			continue
		}
		if i >= len(pts) {
			i = len(pts) - 1
		}
		if len(out) > 0 && out[len(out)-1].BitOff >= pts[i].BitOff {
			continue
		}
		out = append(out, pts[i])
	}
	return out
}
