package vlc

import (
	"fmt"

	"mpeg2par/internal/bits"
)

// Table B-1: macroblock_address_increment. Values 1..33 have code words;
// larger increments are coded with one macroblock_escape (adds 33) per 33.
var mbaCodes = [34]Code{
	0:  {},             // unused
	1:  {0b1, 1},       //
	2:  {0b011, 3},     //
	3:  {0b010, 3},     //
	4:  {0b0011, 4},    //
	5:  {0b0010, 4},    //
	6:  {0b00011, 5},   //
	7:  {0b00010, 5},   //
	8:  {0b0000111, 7}, //
	9:  {0b0000110, 7}, //
	10: {0b00001011, 8},
	11: {0b00001010, 8},
	12: {0b00001001, 8},
	13: {0b00001000, 8},
	14: {0b00000111, 8},
	15: {0b00000110, 8},
	16: {0b0000010111, 10},
	17: {0b0000010110, 10},
	18: {0b0000010101, 10},
	19: {0b0000010100, 10},
	20: {0b0000010011, 10},
	21: {0b0000010010, 10},
	22: {0b00000100011, 11},
	23: {0b00000100010, 11},
	24: {0b00000100001, 11},
	25: {0b00000100000, 11},
	26: {0b00000011111, 11},
	27: {0b00000011110, 11},
	28: {0b00000011101, 11},
	29: {0b00000011100, 11},
	30: {0b00000011011, 11},
	31: {0b00000011010, 11},
	32: {0b00000011001, 11},
	33: {0b00000011000, 11},
}

// mbaEscape is the macroblock_escape code; each occurrence adds 33 to the
// decoded increment.
var mbaEscape = Code{0b00000001000, 11}

const mbaEscapeSym = 34

var mbaTable = buildTable("macroblock_address_increment", func() []entry {
	es := make([]entry, 0, 34)
	for v := 1; v <= 33; v++ {
		es = append(es, entry{mbaCodes[v], int32(v)})
	}
	return append(es, entry{mbaEscape, mbaEscapeSym})
}())

// EncodeMBAddrInc writes a macroblock address increment >= 1, emitting
// escape codes as needed.
func EncodeMBAddrInc(w *bits.Writer, inc int) error {
	if inc < 1 {
		return fmt.Errorf("vlc: macroblock address increment %d < 1", inc)
	}
	for inc > 33 {
		mbaEscape.put(w)
		inc -= 33
	}
	mbaCodes[inc].put(w)
	return nil
}

// MBAddrIncLookup returns the macroblock_address_increment whose code
// word starts the left-justified stream window w, and the code's length:
// 0 when no code matches, and an increment above 33 for a
// macroblock_escape, which only DecodeMBAddrInc folds in.
func MBAddrIncLookup(w uint64) (inc int, n uint) {
	sym, n := mbaTable.lookup(w)
	return int(sym), n
}

// DecodeMBAddrInc reads a macroblock address increment, folding in any
// escape codes.
func DecodeMBAddrInc(r *bits.Reader) (int, error) {
	inc := 0
	for {
		sym, err := mbaTable.decode(r)
		if err != nil {
			return 0, err
		}
		if sym == mbaEscapeSym {
			inc += 33
			// A pathological stream could stuff escapes forever; bound by
			// the widest legal picture (macroblock address < 2^16 or so).
			if inc > 1<<20 {
				return 0, fmt.Errorf("vlc: runaway macroblock escape sequence")
			}
			continue
		}
		return inc + int(sym), nil
	}
}
