package vlc

import (
	"fmt"

	"mpeg2par/internal/bits"
)

// MBType is the decoded macroblock_type flag set (§6.3.17.1).
type MBType struct {
	Quant          bool // macroblock_quant: quantiser_scale_code follows
	MotionForward  bool // forward motion vectors present
	MotionBackward bool // backward motion vectors present
	Pattern        bool // coded_block_pattern follows
	Intra          bool // intra-coded macroblock
}

// flags packs the MBType booleans for table symbols.
func (m MBType) flags() int32 {
	var f int32
	if m.Quant {
		f |= 1
	}
	if m.MotionForward {
		f |= 2
	}
	if m.MotionBackward {
		f |= 4
	}
	if m.Pattern {
		f |= 8
	}
	if m.Intra {
		f |= 16
	}
	return f
}

func mbTypeFromFlags(f int32) MBType {
	return MBType{
		Quant:          f&1 != 0,
		MotionForward:  f&2 != 0,
		MotionBackward: f&4 != 0,
		Pattern:        f&8 != 0,
		Intra:          f&16 != 0,
	}
}

// Tables B-2 (I), B-3 (P), B-4 (B): macroblock_type code assignments.
var (
	mbTypeI = []struct {
		t MBType
		c Code
	}{
		{MBType{Intra: true}, Code{0b1, 1}},
		{MBType{Intra: true, Quant: true}, Code{0b01, 2}},
	}
	mbTypeP = []struct {
		t MBType
		c Code
	}{
		{MBType{MotionForward: true, Pattern: true}, Code{0b1, 1}},
		{MBType{Pattern: true}, Code{0b01, 2}},
		{MBType{MotionForward: true}, Code{0b001, 3}},
		{MBType{Intra: true}, Code{0b00011, 5}},
		{MBType{Quant: true, MotionForward: true, Pattern: true}, Code{0b00010, 5}},
		{MBType{Quant: true, Pattern: true}, Code{0b00001, 5}},
		{MBType{Quant: true, Intra: true}, Code{0b000001, 6}},
	}
	mbTypeB = []struct {
		t MBType
		c Code
	}{
		{MBType{MotionForward: true, MotionBackward: true}, Code{0b10, 2}},
		{MBType{MotionForward: true, MotionBackward: true, Pattern: true}, Code{0b11, 2}},
		{MBType{MotionBackward: true}, Code{0b010, 3}},
		{MBType{MotionBackward: true, Pattern: true}, Code{0b011, 3}},
		{MBType{MotionForward: true}, Code{0b0010, 4}},
		{MBType{MotionForward: true, Pattern: true}, Code{0b0011, 4}},
		{MBType{Intra: true}, Code{0b00011, 5}},
		{MBType{Quant: true, MotionForward: true, MotionBackward: true, Pattern: true}, Code{0b00010, 5}},
		{MBType{Quant: true, MotionForward: true, Pattern: true}, Code{0b000011, 6}},
		{MBType{Quant: true, MotionBackward: true, Pattern: true}, Code{0b000010, 6}},
		{MBType{Quant: true, Intra: true}, Code{0b000001, 6}},
	}
)

// PictureCoding selects the macroblock_type table.
type PictureCoding int

// Picture coding types as coded in the picture header (§6.3.9).
const (
	CodingI PictureCoding = 1
	CodingP PictureCoding = 2
	CodingB PictureCoding = 3
)

func (p PictureCoding) String() string {
	switch p {
	case CodingI:
		return "I"
	case CodingP:
		return "P"
	case CodingB:
		return "B"
	}
	return fmt.Sprintf("PictureCoding(%d)", int(p))
}

var (
	mbTypeTables  [4]*table
	mbTypeEncode  [4]map[int32]Code
	mbTypeDefined = [4][]struct {
		t MBType
		c Code
	}{CodingI: mbTypeI, CodingP: mbTypeP, CodingB: mbTypeB}
)

func init() {
	for _, pc := range []PictureCoding{CodingI, CodingP, CodingB} {
		defs := mbTypeDefined[pc]
		es := make([]entry, len(defs))
		enc := make(map[int32]Code, len(defs))
		for i, d := range defs {
			es[i] = entry{d.c, d.t.flags()}
			enc[d.t.flags()] = d.c
		}
		mbTypeTables[pc] = buildTable("macroblock_type("+pc.String()+")", es)
		mbTypeEncode[pc] = enc
	}
}

// EncodeMBType writes a macroblock_type for the given picture coding type.
// The flag combination must be one the table defines.
func EncodeMBType(w *bits.Writer, pc PictureCoding, t MBType) error {
	if pc < CodingI || pc > CodingB {
		return fmt.Errorf("vlc: bad picture coding type %d", pc)
	}
	c, ok := mbTypeEncode[pc][t.flags()]
	if !ok {
		return fmt.Errorf("vlc: macroblock type %+v not codable in %s picture", t, pc)
	}
	c.put(w)
	return nil
}

// DecodeMBType reads a macroblock_type for the given picture coding type.
func DecodeMBType(r *bits.Reader, pc PictureCoding) (MBType, error) {
	if pc < CodingI || pc > CodingB {
		return MBType{}, fmt.Errorf("vlc: bad picture coding type %d", pc)
	}
	sym, err := mbTypeTables[pc].decode(r)
	if err != nil {
		return MBType{}, err
	}
	return mbTypeFromFlags(sym), nil
}

// mbTypeWindow[pc][v] answers MBTypeLookup for the six bits v that start
// a window: macroblock_type's longest code is six bits, so the flags come
// unpacked, with the code length (0: no code), out of one 6-byte entry.
var mbTypeWindow [4][64]struct {
	t MBType
	n uint8
}

func init() {
	for _, pc := range []PictureCoding{CodingI, CodingP, CodingB} {
		for _, d := range mbTypeDefined[pc] {
			shift := 6 - uint(d.c.Len)
			for v := d.c.Bits << shift; v < (d.c.Bits+1)<<shift; v++ {
				mbTypeWindow[pc][v].t, mbTypeWindow[pc][v].n = d.t, d.c.Len
			}
		}
	}
}

// MBTypeLookup returns the macroblock_type whose code starts the
// left-justified stream window w and that code's length, or n = 0 when no
// code of the picture coding type's table matches — which is every window
// for a pc that is none of I, P and B, as DecodeMBType refuses those. The
// macroblock header decode of internal/mpeg2 reads the type through it; w
// must hold at least 6 meaningful bits.
func MBTypeLookup(w uint64, pc PictureCoding) (t MBType, n uint) {
	if pc < CodingI || pc > CodingB {
		return MBType{}, 0
	}
	e := &mbTypeWindow[pc][w>>58]
	return e.t, uint(e.n)
}
