package mpeg2

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/scan"
	"mpeg2par/internal/vlc"
)

// --- bit-serial reference ----------------------------------------------------
//
// refDecodeBlock is what decodeBlock is held to: a decoder that reads one bit
// at a time and matches the bits read so far against the code words the
// encoder writes (vlc.EncodeCoef, EncodeEOB, EncodeDCSize — the Annex-B rows
// seen from the other side), checking every symbol against the end of the
// buffer the way a reader-per-field parser does. It shares no table and no
// window with the kernel.

// refCode is a code word: the low n bits of bits.
type refCode struct {
	bits uint32
	n    int
}

type refSym struct {
	run         int
	level       int32
	eob, escape bool
}

// written returns the bits w holds (32 at most) as a code word. It pads w to
// a byte boundary.
func written(w *bits.Writer) refCode {
	n := int(w.BitsWritten())
	var v uint32
	for i, b := range w.Bytes() {
		if i < 4 {
			v |= uint32(b) << uint(24-8*i)
		}
	}
	return refCode{v >> uint(32-n), n}
}

// refCoefCodes lists the code words of one coefficient table variant,
// without their sign bits.
func refCoefCodes(tableOne, first bool) map[refCode]refSym {
	codes := map[refCode]refSym{{0b000001, 6}: {escape: true}}
	var w bits.Writer
	for run := 0; run < 64; run++ {
		for level := int32(1); level <= 64; level++ {
			w.Reset()
			if err := vlc.EncodeCoef(&w, tableOne, first, run, level); err != nil {
				panic(err)
			}
			c := written(&w)
			if c.n == 24 && c.bits>>18 == 0b000001 {
				continue // no code word of its own: escape-coded
			}
			codes[refCode{c.bits >> 1, c.n - 1}] = refSym{run: run, level: level}
		}
	}
	if !first {
		w.Reset()
		vlc.EncodeEOB(&w, tableOne)
		codes[written(&w)] = refSym{eob: true}
	}
	return codes
}

func refDCSizeCodes(luma bool) map[refCode]int {
	codes := map[refCode]int{}
	var w bits.Writer
	for size := 0; size <= 11; size++ {
		w.Reset()
		if err := vlc.EncodeDCSize(&w, size, luma); err != nil {
			panic(err)
		}
		codes[written(&w)] = size
	}
	return codes
}

var (
	refCoef   = map[[2]bool]map[refCode]refSym{}
	refDCSize = map[bool]map[refCode]int{true: refDCSizeCodes(true), false: refDCSizeCodes(false)}
)

func init() {
	for _, v := range [][2]bool{{false, false}, {false, true}, {true, false}} {
		refCoef[v] = refCoefCodes(v[0], v[1])
	}
}

type verdict int

const (
	accepted verdict = iota
	underflow
	rejected
)

func (v verdict) String() string { return [...]string{"accepted", "underflow", "rejected"}[v] }

// refReader reads single bits; past the end it reads zeros.
type refReader struct {
	data []byte
	pos  int64
}

func (r *refReader) left() int64 { return int64(len(r.data))*8 - r.pos }

func (r *refReader) bitAt(p int64) uint32 {
	if p >= int64(len(r.data))*8 {
		return 0
	}
	return uint32(r.data[p>>3]>>uint(7-p&7)) & 1
}

// take reads n bits, or reports that they are not all there.
func (r *refReader) take(n int) (uint32, bool) {
	if int64(n) > r.left() {
		return 0, false
	}
	var v uint32
	for i := 0; i < n; i++ {
		v = v<<1 | r.bitAt(r.pos)
		r.pos++
	}
	return v, true
}

// refMatch reads one code word of the prefix-free set the lookup answers
// for. A word that runs past the end is an underflow; bits that start no word
// are rejected, unless there were no bits at all.
func refMatch[T any](r *refReader, lookup func(refCode) (T, bool)) (T, verdict) {
	var c refCode
	for c.n < 16 {
		c = refCode{c.bits<<1 | r.bitAt(r.pos+int64(c.n)), c.n + 1}
		if sym, ok := lookup(c); ok {
			if int64(c.n) > r.left() {
				return sym, underflow
			}
			r.pos += int64(c.n)
			return sym, accepted
		}
	}
	var zero T
	if r.left() <= 0 {
		return zero, underflow
	}
	return zero, rejected
}

// refDecodeBlock decodes one block at bit offset off of data. dcPred is the
// DC predictor going in; the one coming out is returned.
func refDecodeBlock(data []byte, off int64, p *PictureParams, dcPred int32, intra, luma bool) (blk [64]int32, end int64, dcOut int32, v verdict) {
	r := &refReader{data: data, pos: off}
	tbl := scan.Table(p.AlternateScan)
	tableOne := intra && p.IntraVLCFormat
	pos := 0
	if intra {
		sizes := refDCSize[luma]
		size, v := refMatch(r, func(c refCode) (int, bool) { s, ok := sizes[c]; return s, ok })
		if v != accepted {
			return blk, 0, 0, v
		}
		dc := dcPred
		if size > 0 {
			code, ok := r.take(size)
			if !ok {
				return blk, 0, 0, underflow
			}
			diff := int32(code)
			if code>>uint(size-1) == 0 {
				diff -= 1<<uint(size) - 1
			}
			dc += diff
		}
		if dc < 0 || dc > 1<<uint(p.IntraDCPrecision+8)-1 {
			return blk, 0, 0, rejected
		}
		dcPred, blk[0], pos = dc, dc, 1
	}
	first := !intra
	for {
		codes := refCoef[[2]bool{tableOne, first}]
		sym, v := refMatch(r, func(c refCode) (refSym, bool) { s, ok := codes[c]; return s, ok })
		if v != accepted {
			return blk, 0, 0, v
		}
		switch {
		case sym.eob:
			return blk, r.pos, dcPred, accepted
		case sym.escape:
			run, ok1 := r.take(6)
			level, ok2 := r.take(12)
			if !ok1 || !ok2 {
				return blk, 0, 0, underflow
			}
			sym.run, sym.level = int(run), int32(level)
			if level >= 2048 {
				sym.level -= 4096
			}
			if sym.level == 0 || sym.level == -2048 {
				return blk, 0, 0, rejected
			}
		default:
			sign, ok := r.take(1)
			if !ok {
				return blk, 0, 0, underflow
			}
			if sign == 1 {
				sym.level = -sym.level
			}
		}
		first = false
		if pos += sym.run; pos > 63 {
			return blk, 0, 0, rejected
		}
		blk[tbl[pos]] = sym.level
		pos++
	}
}

// --- kernel vs reference -----------------------------------------------------

// blockVariant is one way of decoding a block: which coefficient table,
// which scan, which DC code.
type blockVariant struct {
	intra, tableOne, alternate, luma bool
	dcPrecision                      int
}

func (v blockVariant) String() string {
	return fmt.Sprintf("intra=%v tableOne=%v alternate=%v luma=%v precision=%d", v.intra, v.tableOne, v.alternate, v.luma, v.dcPrecision)
}

func (v blockVariant) params() *PictureParams {
	return &PictureParams{MBWidth: 1, MBHeight: 1, Type: vlc.CodingI, IntraVLCFormat: v.tableOne,
		AlternateScan: v.alternate, IntraDCPrecision: v.dcPrecision, FramePredFrameDCT: true}
}

// allVariants covers {table zero first/next, table one} × {zigzag,
// alternate} × intra/non-intra, with both DC size tables.
func allVariants() []blockVariant {
	var vs []blockVariant
	for _, alt := range []bool{false, true} {
		vs = append(vs, blockVariant{alternate: alt}) // non-intra: table zero, first then next
		for _, one := range []bool{false, true} {
			for _, luma := range []bool{false, true} {
				vs = append(vs, blockVariant{intra: true, tableOne: one, alternate: alt, luma: luma})
			}
		}
	}
	return vs
}

// checkBlock decodes the block at bit offset off of data with the kernel and
// with the reference and fails on any difference: the decision (and, for a
// refusal, whether it is an underflow), the coefficients, the mask, the DC
// predictor and the bit position the reader is left at.
func checkBlock(t testing.TB, data []byte, off int64, v blockVariant, dcPred int32) verdict {
	t.Helper()
	p := v.params()
	wantBlk, wantEnd, wantDC, want := refDecodeBlock(data, off, p, dcPred, v.intra, v.luma)

	var st sliceState
	st.init(p, 1)
	cc := 1
	if v.luma {
		cc = 0
	}
	st.dcPred[cc] = dcPred
	r := bits.NewReader(data)
	r.SeekBit(off)
	blk := [64]int32{0: 99, 63: -99} // stale contents of a recycled MB
	mask, err := st.decodeBlock(r, &blk, v.intra, cc, v.luma)

	got := accepted
	switch {
	case errors.Is(err, bits.ErrUnderflow):
		got = underflow
	case err != nil:
		got = rejected
	}
	if got != want {
		t.Fatalf("%v off %d data %x: kernel %v (%v), reference %v", v, off, data, got, err, want)
	}
	if got != accepted {
		return got
	}
	if blk != wantBlk {
		t.Fatalf("%v off %d data %x: coefficients\nkernel    %v\nreference %v", v, off, data, blk, wantBlk)
	}
	for i, c := range blk {
		if (c != 0) != (mask>>uint(i)&1 == 1) {
			t.Fatalf("%v off %d data %x: mask %064b disagrees with blk[%d] = %d", v, off, data, mask, i, c)
		}
	}
	if r.BitPos() != wantEnd || r.Err() != nil {
		t.Fatalf("%v off %d data %x: reader left at bit %d (err %v), reference at %d", v, off, data, r.BitPos(), r.Err(), wantEnd)
	}
	if st.dcPred[cc] != wantDC {
		t.Fatalf("%v off %d data %x: DC predictor %d, reference %d", v, off, data, st.dcPred[cc], wantDC)
	}
	return got
}

// FuzzDecodeBlock: arbitrary bytes, every variant, any starting bit.
func FuzzDecodeBlock(f *testing.F) {
	f.Add([]byte{0x80}, uint8(0), uint16(0), uint16(128))
	f.Add([]byte{0x2f, 0x04, 0x10, 0x00, 0x7f, 0xff, 0x80}, uint8(1), uint16(3), uint16(128))
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}, uint8(2), uint16(0), uint16(0))
	f.Add([]byte{0xd6, 0x04, 0x1f, 0xff, 0x04, 0x18, 0x00, 0x60}, uint8(7), uint16(5), uint16(1023))
	vs := allVariants()
	rng := rand.New(rand.NewSource(29))
	for i := range vs { // a valid block of every variant, so mutation starts inside the syntax
		var w bits.Writer
		randomBlock(rng, &w, vs[i], 1+rng.Intn(24))
		f.Add(w.Bytes(), uint8(i), uint16(0), uint16(128))
	}
	f.Fuzz(func(t *testing.T, data []byte, variant uint8, off, dcPred uint16) {
		v := vs[int(variant)%len(vs)]
		v.dcPrecision = int(variant>>4) % 4
		checkBlock(t, data, min(int64(off), int64(len(data))*8), v, int32(dcPred))
	})
}

// put appends code word c to w.
func (c refCode) put(w *bits.Writer) { w.Put(c.bits, uint(c.n)) }

// TestDecodeBlockEveryCodeWord runs every code word of every table variant
// through the kernel, with either sign, alone in a block: each Annex-B row,
// the escape at both ends of its run and level ranges, its two forbidden
// levels, and end of block. What a word must decode to is stated here, not
// taken from the reference (which is consulted as well).
func TestDecodeBlockEveryCodeWord(t *testing.T) {
	for _, v := range allVariants() {
		tbl := scan.Table(v.alternate)
		var head refCode // what precedes the first AC symbol
		start := 0
		if v.intra {
			var w bits.Writer
			if err := vlc.EncodeDCDifferential(&w, -3, v.luma); err != nil {
				t.Fatal(err)
			}
			head, start = written(&w), 1
		}
		eob := func(w *bits.Writer) { vlc.EncodeEOB(w, v.tableOne) }
		try := func(name string, body func(w *bits.Writer), want verdict, run int, level int32) {
			t.Helper()
			var w bits.Writer
			head.put(&w)
			body(&w)
			eob(&w)
			data := w.Bytes()
			if got := checkBlock(t, data, 0, v, 128); got != want {
				t.Fatalf("%v %s: %v, want %v", v, name, got, want)
			}
			if want != accepted {
				return
			}
			blk, _, _, _ := refDecodeBlock(data, 0, v.params(), 128, v.intra, v.luma)
			wantBlk := [64]int32{}
			if v.intra {
				wantBlk[0] = 125
			}
			wantBlk[tbl[start+run]] = level
			if blk != wantBlk {
				t.Fatalf("%v %s: decoded %v, want %v", v, name, blk, wantBlk)
			}
		}

		words := 0
		for c, sym := range refCoef[[2]bool{v.tableOne, !v.intra}] {
			if sym.eob || sym.escape {
				continue
			}
			words++
			for sign, level := range []int32{sym.level, -sym.level} {
				try(fmt.Sprintf("(%d,%d)", sym.run, level), func(w *bits.Writer) {
					c.put(w)
					w.Put(uint32(sign), 1)
				}, accepted, sym.run, level)
			}
		}
		if words < 111 { // B-14 has 111 (run, level) rows; the B-15 composite more
			t.Fatalf("%v: only %d code words exercised", v, words)
		}
		escape := func(run int, level int32) func(w *bits.Writer) {
			return func(w *bits.Writer) {
				w.Put(0b000001, 6)
				w.Put(uint32(run), 6)
				w.Put(uint32(level)&0xFFF, 12)
			}
		}
		lastRun := 63 - start
		for _, run := range []int{0, lastRun} {
			for _, level := range []int32{1, -1, 2047, -2047} {
				try(fmt.Sprintf("escape (%d,%d)", run, level), escape(run, level), accepted, run, level)
			}
			for _, level := range []int32{0, -2048} {
				try(fmt.Sprintf("forbidden escape (%d,%d)", run, level), escape(run, level), rejected, 0, 0)
			}
		}
		try("run past 63", func(w *bits.Writer) {
			escape(lastRun, 5)(w)
			escape(0, 5)(w)
		}, rejected, 0, 0)
		if v.intra {
			// End of block alone: a DC-only block.
			var w bits.Writer
			head.put(&w)
			eob(&w)
			if got := checkBlock(t, w.Bytes(), 0, v, 128); got != accepted {
				t.Fatalf("%v DC-only block: %v", v, got)
			}
		}
	}
}

// TestDecodeBlockFirstThenNext: the first coefficient of a non-intra block
// reads (0,1) as '1'; from the second on it is '11' and '10' ends the block.
func TestDecodeBlockFirstThenNext(t *testing.T) {
	var w bits.Writer
	w.Put(0b1_0, 2)   // first table: (0,1), positive
	w.Put(0b11_1, 3)  // next table: (0,1), negative
	w.Put(0b011_0, 4) // (1,1), positive
	w.Put(0b10, 2)    // end of block
	v := blockVariant{}
	if got := checkBlock(t, w.Bytes(), 0, v, 0); got != accepted {
		t.Fatal(got)
	}
	blk, end, _, _ := refDecodeBlock(w.Bytes(), 0, v.params(), 0, false, false)
	want := [64]int32{}
	want[scan.Zigzag[0]], want[scan.Zigzag[1]], want[scan.Zigzag[3]] = 1, -1, 1
	if blk != want || end != 11 {
		t.Fatalf("decoded %v to bit %d, want %v to bit 11", blk, end, want)
	}
}

// randomBlock writes a valid block of n coefficients for variant v,
// escapes and long code words included.
func randomBlock(rng *rand.Rand, w *bits.Writer, v blockVariant, n int) {
	pos := 0
	if v.intra {
		if err := vlc.EncodeDCDifferential(w, int32(rng.Intn(200)-100), v.luma); err != nil {
			panic(err)
		}
		pos = 1
	}
	for i := 0; i < n && pos < 64; i++ {
		run := min(rng.Intn(4), 63-pos)
		level := int32(1 + rng.Intn(3))
		switch rng.Intn(8) {
		case 0:
			level = int32(41 + rng.Intn(2000)) // escape
		case 1:
			level = int32(4 + rng.Intn(30)) // the long code words
		}
		if rng.Intn(2) == 0 {
			level = -level
		}
		if err := vlc.EncodeCoef(w, v.tableOne, !v.intra && i == 0, run, level); err != nil {
			panic(err)
		}
		pos += run + 1
	}
	vlc.EncodeEOB(w, v.tableOne)
}

// TestDecodeBlockTail ends a valid block at the end of the buffer, where the
// window can no longer be loaded with one 8-byte read and is zero-filled
// instead, and then cuts the buffer short at every byte inside its last nine:
// whole, the block must decode; cut, it must be refused exactly as the
// reference refuses it, and in all but contrived cases as an underflow.
func TestDecodeBlockTail(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	underflows := 0
	for trial := 0; trial < 400; trial++ {
		vs := allVariants()
		v := vs[trial%len(vs)]
		var w bits.Writer
		off := int64(rng.Intn(8))
		w.Put(uint32(rng.Intn(256))>>uint(8-off), uint(off)) // the block starts mid-byte
		randomBlock(rng, &w, v, 1+rng.Intn(20))
		data := w.Bytes()
		if got := checkBlock(t, data, off, v, 128); got != accepted {
			t.Fatalf("trial %d: whole block %v", trial, got)
		}
		for cut := len(data) - 1; cut >= max(0, len(data)-9); cut-- {
			if checkBlock(t, data[:cut:cut], min(off, int64(cut)*8), v, 128) == underflow {
				underflows++
			}
		}
	}
	if underflows < 1000 {
		t.Fatalf("only %d truncations ended in underflow", underflows)
	}
}
