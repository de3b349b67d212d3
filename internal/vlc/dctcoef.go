package vlc

import (
	"fmt"

	"mpeg2par/internal/bits"
)

// rl is one (run, level) row of a DCT coefficient table. The code excludes
// the sign bit, which follows it in the stream (level > 0 always here).
type rl struct {
	run   int
	level int32
	code  Code
}

// Table B-14 (DCT coefficients table zero; identical to the MPEG-1 table).
// The (0,1) pair is special-cased: code '1' as the first coefficient of a
// non-intra block, '11' otherwise; it is therefore excluded from this list
// and handled by the table variants below.
var b14Pairs = []rl{
	{1, 1, Code{0b011, 3}},
	{0, 2, Code{0b0100, 4}},
	{2, 1, Code{0b0101, 4}},
	{0, 3, Code{0b00101, 5}},
	{3, 1, Code{0b00111, 5}},
	{4, 1, Code{0b00110, 5}},
	{1, 2, Code{0b000110, 6}},
	{5, 1, Code{0b000111, 6}},
	{6, 1, Code{0b000101, 6}},
	{7, 1, Code{0b000100, 6}},
	{0, 4, Code{0b0000110, 7}},
	{2, 2, Code{0b0000100, 7}},
	{8, 1, Code{0b0000111, 7}},
	{9, 1, Code{0b0000101, 7}},
	{0, 5, Code{0b00100110, 8}},
	{0, 6, Code{0b00100001, 8}},
	{1, 3, Code{0b00100101, 8}},
	{3, 2, Code{0b00100100, 8}},
	{10, 1, Code{0b00100111, 8}},
	{11, 1, Code{0b00100011, 8}},
	{12, 1, Code{0b00100010, 8}},
	{13, 1, Code{0b00100000, 8}},
	{0, 7, Code{0b0000001010, 10}},
	{1, 4, Code{0b0000001100, 10}},
	{2, 3, Code{0b0000001011, 10}},
	{4, 2, Code{0b0000001111, 10}},
	{5, 2, Code{0b0000001001, 10}},
	{14, 1, Code{0b0000001110, 10}},
	{15, 1, Code{0b0000001101, 10}},
	{16, 1, Code{0b0000001000, 10}},
	{0, 8, Code{0b000000011101, 12}},
	{0, 9, Code{0b000000011000, 12}},
	{0, 10, Code{0b000000010011, 12}},
	{0, 11, Code{0b000000010000, 12}},
	{1, 5, Code{0b000000011011, 12}},
	{2, 4, Code{0b000000010100, 12}},
	{3, 3, Code{0b000000011100, 12}},
	{4, 3, Code{0b000000010010, 12}},
	{6, 2, Code{0b000000011110, 12}},
	{7, 2, Code{0b000000010101, 12}},
	{8, 2, Code{0b000000010001, 12}},
	{17, 1, Code{0b000000011111, 12}},
	{18, 1, Code{0b000000011010, 12}},
	{19, 1, Code{0b000000011001, 12}},
	{20, 1, Code{0b000000010111, 12}},
	{21, 1, Code{0b000000010110, 12}},
	{0, 12, Code{0b0000000011010, 13}},
	{0, 13, Code{0b0000000011001, 13}},
	{0, 14, Code{0b0000000011000, 13}},
	{0, 15, Code{0b0000000010111, 13}},
	{1, 6, Code{0b0000000010110, 13}},
	{1, 7, Code{0b0000000010101, 13}},
	{2, 5, Code{0b0000000010100, 13}},
	{3, 4, Code{0b0000000010011, 13}},
	{5, 3, Code{0b0000000010010, 13}},
	{9, 2, Code{0b0000000010001, 13}},
	{10, 2, Code{0b0000000010000, 13}},
	{22, 1, Code{0b0000000011111, 13}},
	{23, 1, Code{0b0000000011110, 13}},
	{24, 1, Code{0b0000000011101, 13}},
	{25, 1, Code{0b0000000011100, 13}},
	{26, 1, Code{0b0000000011011, 13}},
	{0, 16, Code{0b00000000011111, 14}},
	{0, 17, Code{0b00000000011110, 14}},
	{0, 18, Code{0b00000000011101, 14}},
	{0, 19, Code{0b00000000011100, 14}},
	{0, 20, Code{0b00000000011011, 14}},
	{0, 21, Code{0b00000000011010, 14}},
	{0, 22, Code{0b00000000011001, 14}},
	{0, 23, Code{0b00000000011000, 14}},
	{0, 24, Code{0b00000000010111, 14}},
	{0, 25, Code{0b00000000010110, 14}},
	{0, 26, Code{0b00000000010101, 14}},
	{0, 27, Code{0b00000000010100, 14}},
	{0, 28, Code{0b00000000010011, 14}},
	{0, 29, Code{0b00000000010010, 14}},
	{0, 30, Code{0b00000000010001, 14}},
	{0, 31, Code{0b00000000010000, 14}},
	{0, 32, Code{0b000000000011000, 15}},
	{0, 33, Code{0b000000000010111, 15}},
	{0, 34, Code{0b000000000010110, 15}},
	{0, 35, Code{0b000000000010101, 15}},
	{0, 36, Code{0b000000000010100, 15}},
	{0, 37, Code{0b000000000010011, 15}},
	{0, 38, Code{0b000000000010010, 15}},
	{0, 39, Code{0b000000000010001, 15}},
	{0, 40, Code{0b000000000010000, 15}},
	{1, 8, Code{0b000000000011111, 15}},
	{1, 9, Code{0b000000000011110, 15}},
	{1, 10, Code{0b000000000011101, 15}},
	{1, 11, Code{0b000000000011100, 15}},
	{1, 12, Code{0b000000000011011, 15}},
	{1, 13, Code{0b000000000011010, 15}},
	{1, 14, Code{0b000000000011001, 15}},
	{1, 15, Code{0b0000000000010011, 16}},
	{1, 16, Code{0b0000000000010010, 16}},
	{1, 17, Code{0b0000000000010001, 16}},
	{1, 18, Code{0b0000000000010000, 16}},
	{6, 3, Code{0b0000000000010100, 16}},
	{11, 2, Code{0b0000000000011010, 16}},
	{12, 2, Code{0b0000000000011001, 16}},
	{13, 2, Code{0b0000000000011000, 16}},
	{14, 2, Code{0b0000000000010111, 16}},
	{15, 2, Code{0b0000000000010110, 16}},
	{16, 2, Code{0b0000000000010101, 16}},
	{27, 1, Code{0b0000000000011111, 16}},
	{28, 1, Code{0b0000000000011110, 16}},
	{29, 1, Code{0b0000000000011101, 16}},
	{30, 1, Code{0b0000000000011100, 16}},
	{31, 1, Code{0b0000000000011011, 16}},
}

// b15Short holds the short (≤ 8 bit) codes of Table B-15, including its
// own (0,1) and (0,2) assignments. Pairs absent here inherit their ≥10-bit
// table-zero codes (see the package comment for the fidelity caveat).
var b15Short = []rl{
	{0, 1, Code{0b10, 2}},
	{1, 1, Code{0b010, 3}},
	{0, 2, Code{0b110, 3}},
	{0, 3, Code{0b0111, 4}},
	{0, 4, Code{0b11100, 5}},
	{0, 5, Code{0b11101, 5}},
	{2, 1, Code{0b00101, 5}},
	{1, 2, Code{0b00110, 5}},
	{3, 1, Code{0b00111, 5}},
	{0, 6, Code{0b000101, 6}},
	{0, 7, Code{0b000100, 6}},
	{4, 1, Code{0b000110, 6}},
	{5, 1, Code{0b000111, 6}},
	{7, 1, Code{0b0000100, 7}},
	{8, 1, Code{0b0000101, 7}},
	{6, 1, Code{0b0000110, 7}},
	{2, 2, Code{0b0000111, 7}},
	{0, 8, Code{0b1111011, 7}},
	{0, 9, Code{0b1111100, 7}},
	{9, 1, Code{0b1111000, 7}},
	{1, 3, Code{0b1111001, 7}},
	{10, 1, Code{0b1111010, 7}},
	{1, 5, Code{0b00100000, 8}},
	{11, 1, Code{0b00100001, 8}},
	{0, 11, Code{0b00100010, 8}},
	{0, 10, Code{0b00100011, 8}},
	{13, 1, Code{0b00100100, 8}},
	{12, 1, Code{0b00100101, 8}},
	{3, 2, Code{0b00100110, 8}},
	{1, 4, Code{0b00100111, 8}},
	{0, 12, Code{0b11111010, 8}},
	{0, 13, Code{0b11111011, 8}},
	{2, 3, Code{0b11111100, 8}},
	{4, 2, Code{0b11111101, 8}},
	{0, 14, Code{0b11111110, 8}},
	{0, 15, Code{0b11111111, 8}},
}

var (
	eobB14   = Code{0b10, 2}
	eobB15   = Code{0b0110, 4}
	escape   = Code{0b000001, 6}
	firstOne = Code{0b1, 1}  // B-14 (0,1) as first coefficient of a non-intra block
	nextOne  = Code{0b11, 2} // B-14 (0,1) elsewhere
)

func pairSym(run int, level int32) int32 { return int32(run)<<12 | level }

// CoefEntry is one slot of a CoefTable, packed in four bytes: what the code
// word starting at the looked-up bits decodes to.
type CoefEntry uint32

func coefEntry(level int32, run int, n uint8) CoefEntry {
	return CoefEntry(uint32(level)<<16 | uint32(run)<<8 | uint32(n))
}

// Len is the number of bits the whole symbol occupies: the code word plus
// its sign bit for a (run, level) pair, the code word alone for end of
// block, all 24 bits for an escape, 0 when no code word starts with the
// looked-up bits.
func (e CoefEntry) Len() uint { return uint(e & 0xFF) }

// Run is the zero run of a (run, level) pair, or one of the reserved
// values below.
func (e CoefEntry) Run() int { return int(e >> 8 & 0xFF) }

// Level is the magnitude of a (run, level) pair. The sign is the last of
// the symbol's Len bits (SignedLevel); an escape carries run and level in
// the stream (EscapeRunLevel).
func (e CoefEntry) Level() int32 { return int32(e >> 16) }

// Reserved CoefEntry.Run values; the runs of (run, level) pairs stop at 31,
// so one comparison with RunEOB tells a pair from everything else.
const (
	RunEOB     = 64 // end of block
	RunEscape  = 65 // escape: 6-bit run and 12-bit level follow the code word
	RunInvalid = 66 // no code word starts with the looked-up bits; Len is 0
)

const (
	coefShortBits  = 8  // first level: indexed by the next 8 bits
	coefPrefixBits = 6  // codes longer than 8 bits all start with six zeros
	coefLongBits   = 10 // second level: bits 6..15 behind that prefix

	// CoefTableBytes is the size of one CoefTable — the VLC working set of
	// a block decode, which internal/decoder's memory-trace model spreads
	// its table probes over.
	CoefTableBytes = (1<<coefShortBits + 1<<coefLongBits) * 4
	// EscapeBits is the length of an escape-coded coefficient, the longest
	// symbol of the coefficient syntax.
	EscapeBits = 24
)

// CoefTable is the decode side of one DCT coefficient table variant: two
// levels of 4-byte entries, 5 KB in all, so that the tables of a picture
// stay cache resident (a flat lookup on the longest code, 16 bits, takes
// 256 KB and spreads the 2-bit end-of-block code over a quarter of it).
// Every code of at most 8 bits is resolved by short; the longer ones all
// share the six-zero prefix and are resolved by long.
type CoefTable struct {
	short [1 << coefShortBits]CoefEntry
	long  [1 << coefLongBits]CoefEntry
}

// Lookup returns the entry for the symbol at the top of w, a left-justified
// window on the stream of which at least 16 bits are meaningful.
func (t *CoefTable) Lookup(w uint64) CoefEntry {
	if w>>(64-coefPrefixBits) != 0 {
		return t.short[w>>(64-coefShortBits)]
	}
	return t.long[w>>(64-coefPrefixBits-coefLongBits)&(1<<coefLongBits-1)]
}

// put files entry e under every slot whose bits start with code c.
func (t *CoefTable) put(name string, c Code, e CoefEntry) {
	var slots []CoefEntry
	switch {
	case c.Len == 0:
		panic("vlc: zero-length code in " + name)
	case c.Len <= coefShortBits:
		n := coefShortBits - c.Len
		slots = t.short[c.Bits<<n:][:1<<n]
		if c.Bits<<n>>(coefShortBits-coefPrefixBits) == 0 {
			slots = nil // Lookup sends the six-zero prefix to the second level
		}
	case c.Len <= coefPrefixBits+coefLongBits && c.Bits>>(c.Len-coefPrefixBits) == 0:
		n := coefPrefixBits + coefLongBits - c.Len
		slots = t.long[c.Bits<<n:][:1<<n]
	}
	if slots == nil {
		panic(fmt.Sprintf("vlc: table %s: code %0*b/%d fits neither level", name, c.Len, c.Bits, c.Len))
	}
	for i := range slots {
		if slots[i].Len() != 0 {
			panic(fmt.Sprintf("vlc: table %s: code %0*b/%d overlaps", name, c.Len, c.Bits, c.Len))
		}
		slots[i] = e
	}
}

// dctTable bundles the decode table and the encode map for one coefficient
// table variant; both are filled from the same rows.
type dctTable struct {
	dec  CoefTable
	enc  map[int32]Code
	name string
}

func buildDCT(name string, pairs []rl, eob Code, hasEOB bool) *dctTable {
	t := &dctTable{enc: make(map[int32]Code, len(pairs)), name: name}
	for i := range t.dec.short {
		t.dec.short[i] = coefEntry(0, RunInvalid, 0)
	}
	for i := range t.dec.long {
		t.dec.long[i] = coefEntry(0, RunInvalid, 0)
	}
	for _, p := range pairs {
		t.dec.put(name, p.code, coefEntry(p.level, p.run, p.code.Len+1))
		t.enc[pairSym(p.run, p.level)] = p.code
	}
	if hasEOB {
		t.dec.put(name, eob, coefEntry(0, RunEOB, eob.Len))
	}
	t.dec.put(name, escape, coefEntry(0, RunEscape, EscapeBits))
	return t
}

var (
	// dctZeroFirst decodes the first coefficient of a non-intra block with
	// table zero: no EOB, and (0,1) is the 1-bit code.
	dctZeroFirst = buildDCT("dct_table_zero_first",
		append([]rl{{0, 1, firstOne}}, b14Pairs...), Code{}, false)
	// dctZeroNext decodes every other table-zero coefficient.
	dctZeroNext = buildDCT("dct_table_zero",
		append([]rl{{0, 1, nextOne}}, b14Pairs...), eobB14, true)
	// dctOne decodes table-one (intra_vlc_format = 1) coefficients.
	dctOne = buildDCT("dct_table_one", func() []rl {
		short := make(map[int32]bool, len(b15Short))
		for _, p := range b15Short {
			short[pairSym(p.run, p.level)] = true
		}
		all := append([]rl{}, b15Short...)
		for _, p := range b14Pairs {
			if p.code.Len >= 10 && !short[pairSym(p.run, p.level)] {
				all = append(all, p)
			}
		}
		return all
	}(), eobB15, true)
)

func selectDCT(tableOne, first bool) *dctTable {
	if tableOne {
		return dctOne
	}
	if first {
		return dctZeroFirst
	}
	return dctZeroNext
}

// CoefDecodeTable returns the decode table for DCT coefficients: table one
// (intra_vlc_format = 1, intra blocks only) or table zero, whose first
// coefficient in a non-intra block has a variant of its own.
func CoefDecodeTable(tableOne, first bool) *CoefTable {
	return &selectDCT(tableOne, first).dec
}

// EncodeCoef writes one (run, level) DCT coefficient. level must be
// non-zero and in [-2047, 2047]; run in [0, 63]. Pairs without a VLC are
// written as the 24-bit MPEG-2 escape (6-bit escape code, 6-bit run,
// 12-bit two's-complement level). first selects the non-intra
// first-coefficient convention of table zero.
func EncodeCoef(w *bits.Writer, tableOne, first bool, run int, level int32) error {
	if level == 0 || level < -2047 || level > 2047 {
		return fmt.Errorf("vlc: DCT level %d not codable", level)
	}
	if run < 0 || run > 63 {
		return fmt.Errorf("vlc: DCT run %d out of range", run)
	}
	t := selectDCT(tableOne, first)
	mag := level
	if mag < 0 {
		mag = -mag
	}
	if c, ok := t.enc[pairSym(run, mag)]; ok {
		c.put(w)
		if level < 0 {
			w.Put(1, 1)
		} else {
			w.Put(0, 1)
		}
		return nil
	}
	escape.put(w)
	w.Put(uint32(run), 6)
	w.Put(uint32(level)&0xFFF, 12)
	return nil
}

// EncodeEOB writes the end-of-block code for the selected table.
func EncodeEOB(w *bits.Writer, tableOne bool) {
	if tableOne {
		eobB15.put(w)
	} else {
		eobB14.put(w)
	}
}

// EscapeRunLevel extracts the 6-bit run and the 12-bit two's-complement
// level of the escape-coded coefficient at the top of w. Levels 0 and
// -2048 are forbidden; rejecting them is the caller's business.
func EscapeRunLevel(w uint64) (run int, level int32) {
	return int(w >> (64 - 12) & 63), int32(uint32(w>>(64-EscapeBits))<<20) >> 20
}

// SignedLevel applies the sign bit of the (run, level) symbol at the top of
// w — the last of its e.Len() bits — to the entry's magnitude.
func SignedLevel(e CoefEntry, w uint64) int32 {
	sign := int32(int64(w<<((e.Len()-1)&63)) >> 63) // 0 or -1
	return (e.Level() ^ sign) - sign
}

// MaxVLCLevel returns the largest level with a VLC for the given run in
// the given table (0 if none) — useful for tests and encoder heuristics.
func MaxVLCLevel(tableOne bool, run int) int32 {
	t := selectDCT(tableOne, false)
	var maxL int32
	for sym := range t.enc {
		if int(sym>>12) == run && sym&0xFFF > maxL {
			maxL = sym & 0xFFF
		}
	}
	return maxL
}
