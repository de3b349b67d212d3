package vlc

import (
	"fmt"

	"mpeg2par/internal/bits"
)

// Table B-9: coded_block_pattern, indexed by cbp value 0..63. cbp 0 is the
// MPEG-2-only 9-bit code (never legal in 4:2:0, where pattern implies at
// least one coded block).
var cbpCodes = [64]Code{
	{0x01, 9}, {0x0b, 5}, {0x09, 5}, {0x0d, 6}, {0x0d, 4}, {0x17, 7}, {0x13, 7}, {0x1f, 8},
	{0x0c, 4}, {0x16, 7}, {0x12, 7}, {0x1e, 8}, {0x13, 5}, {0x1b, 8}, {0x17, 8}, {0x13, 8},
	{0x0b, 4}, {0x15, 7}, {0x11, 7}, {0x1d, 8}, {0x11, 5}, {0x19, 8}, {0x15, 8}, {0x11, 8},
	{0x0f, 6}, {0x0f, 8}, {0x0d, 8}, {0x03, 9}, {0x0f, 5}, {0x0b, 8}, {0x07, 8}, {0x07, 9},
	{0x0a, 4}, {0x14, 7}, {0x10, 7}, {0x1c, 8}, {0x0e, 6}, {0x0e, 8}, {0x0c, 8}, {0x02, 9},
	{0x10, 5}, {0x18, 8}, {0x14, 8}, {0x10, 8}, {0x0e, 5}, {0x0a, 8}, {0x06, 8}, {0x06, 9},
	{0x12, 5}, {0x1a, 8}, {0x16, 8}, {0x12, 8}, {0x0d, 5}, {0x09, 8}, {0x05, 8}, {0x05, 9},
	{0x0c, 5}, {0x08, 8}, {0x04, 8}, {0x04, 9}, {0x07, 3}, {0x0a, 5}, {0x08, 5}, {0x0c, 6},
}

var cbpTable = buildTable("coded_block_pattern", func() []entry {
	es := make([]entry, 64)
	for v := range cbpCodes {
		es[v] = entry{cbpCodes[v], int32(v)}
	}
	return es
}())

// EncodeCBP writes a coded_block_pattern value (0..63). Bit 5 (0x20) of
// cbp is the first luminance block, bit 0 the second chrominance block.
func EncodeCBP(w *bits.Writer, cbp int) error {
	if cbp < 0 || cbp > 63 {
		return fmt.Errorf("vlc: coded block pattern %d out of range", cbp)
	}
	cbpCodes[cbp].put(w)
	return nil
}

// CBPLookup returns the coded_block_pattern whose code word starts the
// left-justified stream window w, and the code's length: 0 when no code
// matches.
func CBPLookup(w uint64) (cbp int, n uint) {
	sym, n := cbpTable.lookup(w)
	return int(sym), n
}

// DecodeCBP reads a coded_block_pattern value.
func DecodeCBP(r *bits.Reader) (int, error) {
	sym, err := cbpTable.decode(r)
	if err != nil {
		return 0, err
	}
	return int(sym), nil
}
