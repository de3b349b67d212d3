// Package vlc implements the variable-length (Huffman) code tables of
// ISO/IEC 13818-2 Annex B used by MPEG-2 video: macroblock address
// increment (B-1), macroblock type (B-2..B-4), coded block pattern (B-9),
// motion code (B-10), DC size (B-12, B-13) and the two DCT coefficient
// tables (B-14, B-15).
//
// Every table is defined once as (symbol, code, length) data; the encode
// side indexes that data directly and the decode side is built from it at
// init, so encoder and decoder cannot drift apart. Tests verify
// prefix-freedom and spot-check code words against the standard.
//
// Two decode layouts. The small tables (B-1, B-2..4, B-9, B-10, B-12/13:
// at most 8 KB each) use the generic table type, a flat lookup on the next
// maxLen bits. The DCT coefficient tables, whose longest code is 16 bits
// and which are probed once per coefficient, use CoefTable instead: two
// levels of 4-byte entries, 5 KB per variant, read through a window on the
// stream by the block decode of internal/mpeg2 (see dctcoef.go). The codes
// that open a macroblock — macroblock_type, motion_code — and dct_dc_size
// have window-form lookups as well (MBTypeLookup, MotionCodeLookup,
// DCSizeLookup), for the macroblock header decode of internal/mpeg2, which
// reads a whole header out of one window; the reader-based Decode*
// functions are what it falls back to on anything irregular.
//
// Table one (B-15) note: its short codes (≤ 8 bits) follow the standard;
// (run,level) pairs without a short code reuse their table-zero long codes
// (≥ 10 bits, all in the '000000...' space B-15 leaves free), which keeps
// the table complete and prefix-free. Streams produced by this module
// round-trip exactly; third-party streams using B-15 long codes may not.
package vlc

import (
	"fmt"

	"mpeg2par/internal/bits"
)

// Code is one variable-length code word: the low Len bits of Bits, written
// MSB first.
type Code struct {
	Bits uint32
	Len  uint8
}

func (c Code) put(w *bits.Writer) { w.Put(c.Bits, uint(c.Len)) }

// entry pairs a code word with the symbol it decodes to.
type entry struct {
	code Code
	sym  int32
}

// table is a flat-lookup prefix decoder. slot i of lut (i being the next
// maxLen bits of the stream, left-justified) holds length<<24 | symbol
// (symbol offset-encoded to stay non-negative), or 0 for invalid codes.
type table struct {
	lut    []uint32
	maxLen uint
	name   string
}

const symBias = 1 << 20 // keeps packed symbols positive

func buildTable(name string, entries []entry) *table {
	maxLen := uint(0)
	for _, e := range entries {
		if uint(e.code.Len) > maxLen {
			maxLen = uint(e.code.Len)
		}
		if e.code.Len == 0 {
			panic("vlc: zero-length code in " + name)
		}
	}
	t := &table{lut: make([]uint32, 1<<maxLen), maxLen: maxLen, name: name}
	for _, e := range entries {
		shift := maxLen - uint(e.code.Len)
		base := e.code.Bits << shift
		packed := uint32(e.code.Len)<<24 | uint32(e.sym+symBias)
		for i := uint32(0); i < 1<<shift; i++ {
			slot := base | i
			if t.lut[slot] != 0 {
				panic(fmt.Sprintf("vlc: table %s: code %0*b/%d overlaps", name, e.code.Len, e.code.Bits, e.code.Len))
			}
			t.lut[slot] = packed
		}
	}
	return t
}

// lookup returns the symbol whose code starts the left-justified stream
// window w (at least maxLen meaningful bits) and the code's length, which
// is 0 when no code matches.
func (t *table) lookup(w uint64) (sym int32, n uint) {
	packed := t.lut[w>>(64-t.maxLen)]
	return int32(packed&0xFFFFFF) - symBias, uint(packed >> 24)
}

// decode reads one symbol. On an invalid code it returns an error and
// leaves the reader positioned at the offending code.
func (t *table) decode(r *bits.Reader) (int32, error) {
	idx := r.Peek(t.maxLen)
	packed := t.lut[idx]
	if packed == 0 {
		if r.Remaining() < int64(t.maxLen) && r.Remaining() <= 0 {
			return 0, fmt.Errorf("vlc: %s: %w", t.name, bits.ErrUnderflow)
		}
		return 0, fmt.Errorf("vlc: %s: invalid code %0*b at bit %d", t.name, t.maxLen, idx, r.BitPos())
	}
	length := uint(packed >> 24)
	if r.Remaining() < int64(length) {
		return 0, fmt.Errorf("vlc: %s: %w", t.name, bits.ErrUnderflow)
	}
	r.Skip(length)
	return int32(packed&0xFFFFFF) - symBias, nil
}
