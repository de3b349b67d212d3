package vlc

import (
	"fmt"

	"mpeg2par/internal/bits"
)

// Table B-10: motion_code, indexed by motion_code+16 for values -16..+16.
var motionCodes = [33]Code{
	{0x19, 11}, {0x1b, 11}, {0x1d, 11}, {0x1f, 11}, {0x21, 11}, {0x23, 11},
	{0x13, 10}, {0x15, 10}, {0x17, 10}, {0x07, 8}, {0x09, 8}, {0x0b, 8},
	{0x07, 7}, {0x03, 5}, {0x03, 4}, {0x03, 3}, {0x01, 1}, {0x02, 3},
	{0x02, 4}, {0x02, 5}, {0x06, 7}, {0x0a, 8}, {0x08, 8}, {0x06, 8},
	{0x16, 10}, {0x14, 10}, {0x12, 10}, {0x22, 11}, {0x20, 11}, {0x1e, 11},
	{0x1c, 11}, {0x1a, 11}, {0x18, 11},
}

var motionTable = buildTable("motion_code", func() []entry {
	es := make([]entry, 33)
	for i := range motionCodes {
		es[i] = entry{motionCodes[i], int32(i - 16)}
	}
	return es
}())

// EncodeMotionCode writes a motion_code in [-16, 16].
func EncodeMotionCode(w *bits.Writer, code int) error {
	if code < -16 || code > 16 {
		return fmt.Errorf("vlc: motion code %d out of range", code)
	}
	motionCodes[code+16].put(w)
	return nil
}

// DecodeMotionCode reads a motion_code in [-16, 16].
func DecodeMotionCode(r *bits.Reader) (int, error) {
	sym, err := motionTable.decode(r)
	if err != nil {
		return 0, err
	}
	return int(sym), nil
}

// motionWindow[v] answers MotionCodeLookup for the eleven bits v that
// start a window (motion_code's longest code): the code and its length,
// 0 where no code matches, in two bytes.
var motionWindow [1 << 11]struct {
	code int8
	n    uint8
}

func init() {
	for i, c := range motionCodes {
		shift := 11 - uint(c.Len)
		for v := c.Bits << shift; v < (c.Bits+1)<<shift; v++ {
			motionWindow[v].code, motionWindow[v].n = int8(i-16), c.Len
		}
	}
}

// MotionCodeLookup returns the motion_code whose code word starts the
// left-justified stream window w and that code's length, or n = 0 when
// none matches; w must hold at least 11 meaningful bits.
func MotionCodeLookup(w uint64) (code int, n uint) {
	e := motionWindow[w>>53]
	return int(e.code), uint(e.n)
}
