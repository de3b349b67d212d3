package vlc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mpeg2par/internal/bits"
)

// --- prefix-freedom ------------------------------------------------------

// codeString renders a Code as its bit string for prefix checks.
func codeString(c Code) string {
	var sb strings.Builder
	for i := int(c.Len) - 1; i >= 0; i-- {
		if c.Bits>>uint(i)&1 != 0 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

func checkPrefixFree(t *testing.T, name string, codes []Code) {
	t.Helper()
	ss := make([]string, len(codes))
	for i, c := range codes {
		ss[i] = codeString(c)
	}
	for i := range ss {
		for j := range ss {
			if i != j && strings.HasPrefix(ss[j], ss[i]) {
				t.Errorf("%s: %q is a prefix of %q", name, ss[i], ss[j])
			}
		}
	}
}

func TestTablesPrefixFree(t *testing.T) {
	// buildTable already panics on overlaps at init; these checks give
	// readable diagnostics and also cover composite tables.
	var mba []Code
	for v := 1; v <= 33; v++ {
		mba = append(mba, mbaCodes[v])
	}
	mba = append(mba, mbaEscape)
	checkPrefixFree(t, "B-1", mba)

	for _, pc := range []PictureCoding{CodingI, CodingP, CodingB} {
		var cs []Code
		for _, d := range mbTypeDefined[pc] {
			cs = append(cs, d.c)
		}
		checkPrefixFree(t, "macroblock_type "+pc.String(), cs)
	}

	checkPrefixFree(t, "B-9", cbpCodes[:])
	checkPrefixFree(t, "B-10", motionCodes[:])
	checkPrefixFree(t, "B-12", dcSizeLumaCodes[:])
	checkPrefixFree(t, "B-13", dcSizeChromaCodes[:])

	zeroNext := []Code{eobB14, escape, nextOne}
	for _, p := range b14Pairs {
		zeroNext = append(zeroNext, p.code)
	}
	checkPrefixFree(t, "B-14 next", zeroNext)

	zeroFirst := []Code{escape, firstOne}
	for _, p := range b14Pairs {
		zeroFirst = append(zeroFirst, p.code)
	}
	checkPrefixFree(t, "B-14 first", zeroFirst)

	one := []Code{eobB15, escape}
	short := map[int32]bool{}
	for _, p := range b15Short {
		one = append(one, p.code)
		short[pairSym(p.run, p.level)] = true
	}
	for _, p := range b14Pairs {
		if p.code.Len >= 10 && !short[pairSym(p.run, p.level)] {
			one = append(one, p.code)
		}
	}
	checkPrefixFree(t, "table one", one)
}

// --- spot checks against published code words ----------------------------

func TestKnownCodeWords(t *testing.T) {
	check := func(name string, got Code, bits uint32, length uint8) {
		t.Helper()
		if got.Bits != bits || got.Len != length {
			t.Errorf("%s: got %0*b/%d, want %0*b/%d", name, got.Len, got.Bits, got.Len, length, bits, length)
		}
	}
	check("mba 1", mbaCodes[1], 0b1, 1)
	check("mba 8", mbaCodes[8], 0b0000111, 7)
	check("mba 33", mbaCodes[33], 0b00000011000, 11)
	check("mba escape", mbaEscape, 0b00000001000, 11)

	check("cbp 60", cbpCodes[60], 0b111, 3)
	check("cbp 4", cbpCodes[4], 0b1101, 4)
	check("cbp 1", cbpCodes[1], 0b01011, 5)
	check("cbp 63", cbpCodes[63], 0b001100, 6)

	check("motion 0", motionCodes[16], 0b1, 1)
	check("motion +1", motionCodes[17], 0b010, 3)
	check("motion -1", motionCodes[15], 0b011, 3)
	check("motion +16", motionCodes[32], 0b00000011000, 11)
	check("motion -16", motionCodes[0], 0b00000011001, 11)

	check("dc luma 0", dcSizeLumaCodes[0], 0b100, 3)
	check("dc luma 1", dcSizeLumaCodes[1], 0b00, 2)
	check("dc luma 11", dcSizeLumaCodes[11], 0b111111111, 9)
	check("dc chroma 0", dcSizeChromaCodes[0], 0b00, 2)
	check("dc chroma 11", dcSizeChromaCodes[11], 0b1111111111, 10)

	check("B-14 EOB", eobB14, 0b10, 2)
	check("B-15 EOB", eobB15, 0b0110, 4)
	check("escape", escape, 0b000001, 6)
	check("B-14 (0,1) first", firstOne, 0b1, 1)
	check("B-14 (0,1) next", nextOne, 0b11, 2)

	// A few B-14 rows straight from the standard.
	wantPairs := map[[2]int32]Code{
		{1, 1}:  {0b011, 3},
		{0, 2}:  {0b0100, 4},
		{0, 3}:  {0b00101, 5},
		{13, 1}: {0b00100000, 8},
		{0, 7}:  {0b0000001010, 10},
		{0, 8}:  {0b000000011101, 12},
		{1, 18}: {0b0000000000010000, 16},
		{31, 1}: {0b0000000000011011, 16},
	}
	for k, want := range wantPairs {
		got, ok := dctZeroNext.enc[pairSym(int(k[0]), k[1])]
		if !ok {
			t.Errorf("B-14 missing pair (%d,%d)", k[0], k[1])
			continue
		}
		check("B-14 pair", got, want.Bits, want.Len)
	}
}

func TestB14Complete(t *testing.T) {
	// B-14 defines exactly 113 run/level pairs (incl. (0,1)).
	if got := len(b14Pairs) + 1; got != 111 {
		t.Errorf("B-14 pair count = %d, want 111 (plus EOB and escape = 113 codes)", got)
	}
}

// --- round trips ----------------------------------------------------------

func TestMBAddrIncRoundTrip(t *testing.T) {
	var w bits.Writer
	vals := []int{1, 2, 33, 34, 66, 67, 100, 500}
	for _, v := range vals {
		if err := EncodeMBAddrInc(&w, v); err != nil {
			t.Fatal(err)
		}
	}
	r := bits.NewReader(w.Bytes())
	for _, v := range vals {
		got, err := DecodeMBAddrInc(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("got %d want %d", got, v)
		}
	}
}

// TestMBAddrIncLookupPrefixes checks the window lookup against the
// ground truth: for every 11-bit lookahead (Table B-1's longest code),
// it matches exactly the code word, or the escape, that prefixes it,
// and no code at all where none does.
func TestMBAddrIncLookupPrefixes(t *testing.T) {
	for v := uint64(0); v < 1<<11; v++ {
		wantInc, wantLen := 0, uint(0)
		for inc := 1; inc <= 33; inc++ {
			if c := mbaCodes[inc]; v>>(11-uint64(c.Len)) == uint64(c.Bits) {
				wantInc, wantLen = inc, uint(c.Len)
			}
		}
		if v>>(11-uint64(mbaEscape.Len)) == uint64(mbaEscape.Bits) {
			wantInc, wantLen = mbaEscapeSym, uint(mbaEscape.Len)
		}
		inc, n := MBAddrIncLookup(v << 53)
		if n != wantLen || n != 0 && inc != wantInc {
			t.Fatalf("prefix %011b: got (%d, %d) want (%d, %d)", v, inc, n, wantInc, wantLen)
		}
	}
	// Every encodable increment's first code word is found in its window.
	for inc := 1; inc <= 100; inc++ {
		var w bits.Writer
		if err := EncodeMBAddrInc(&w, inc); err != nil {
			t.Fatal(err)
		}
		w.Put(0x7ff, 11) // padding so the window has bits
		win, _ := bits.NewReader(w.Bytes()).Window()
		got, n := MBAddrIncLookup(win)
		if want := min(inc, mbaEscapeSym); n == 0 || got != want {
			t.Fatalf("inc %d: lookup gave (%d, %d), want %d", inc, got, n, want)
		}
	}
}

func TestMBAddrIncErrors(t *testing.T) {
	var w bits.Writer
	if err := EncodeMBAddrInc(&w, 0); err == nil {
		t.Fatal("inc 0 must fail")
	}
	// Runaway escapes.
	for i := 0; i < 40000; i++ {
		mbaEscape.put(&w)
	}
	if _, err := DecodeMBAddrInc(bits.NewReader(w.Bytes())); err == nil {
		t.Fatal("runaway escape must fail")
	}
}

func TestMBTypeRoundTrip(t *testing.T) {
	for _, pc := range []PictureCoding{CodingI, CodingP, CodingB} {
		var w bits.Writer
		var types []MBType
		for _, d := range mbTypeDefined[pc] {
			types = append(types, d.t)
			if err := EncodeMBType(&w, pc, d.t); err != nil {
				t.Fatal(err)
			}
		}
		r := bits.NewReader(w.Bytes())
		for i, want := range types {
			got, err := DecodeMBType(r, pc)
			if err != nil {
				t.Fatalf("%s #%d: %v", pc, i, err)
			}
			if got != want {
				t.Fatalf("%s #%d: got %+v want %+v", pc, i, got, want)
			}
		}
	}
}

func TestMBTypeInvalid(t *testing.T) {
	var w bits.Writer
	if err := EncodeMBType(&w, CodingI, MBType{Pattern: true}); err == nil {
		t.Fatal("pattern-only type is not codable in I pictures")
	}
	if err := EncodeMBType(&w, PictureCoding(7), MBType{Intra: true}); err == nil {
		t.Fatal("bad picture coding type must fail")
	}
	if _, err := DecodeMBType(bits.NewReader([]byte{0}), PictureCoding(0)); err == nil {
		t.Fatal("bad picture coding type must fail on decode")
	}
}

// TestMBTypeLookupMatchesDecode holds the window form to the reader form
// on every six-bit window, for the three coding types and for values that
// are none (whose low bits would select a real table).
func TestMBTypeLookupMatchesDecode(t *testing.T) {
	for pc := PictureCoding(-1); pc <= 9; pc++ {
		for v := uint64(0); v < 64; v++ {
			r := bits.NewReader([]byte{byte(v << 2), 0})
			want, err := DecodeMBType(r, pc)
			got, n := MBTypeLookup(v<<58, pc)
			if err != nil {
				if n != 0 {
					t.Fatalf("%v window %06b: lookup accepts %d bits, DecodeMBType says %v", pc, v, n, err)
				}
				continue
			}
			if got != want || int64(n) != r.BitPos() {
				t.Fatalf("%v window %06b: lookup %+v/%d bits, DecodeMBType %+v/%d", pc, v, got, n, want, r.BitPos())
			}
		}
	}
}

func TestCBPRoundTripAll(t *testing.T) {
	var w bits.Writer
	for v := 0; v <= 63; v++ {
		if err := EncodeCBP(&w, v); err != nil {
			t.Fatal(err)
		}
	}
	r := bits.NewReader(w.Bytes())
	for v := 0; v <= 63; v++ {
		got, err := DecodeCBP(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("cbp got %d want %d", got, v)
		}
	}
	if err := EncodeCBP(&w, 64); err == nil {
		t.Fatal("cbp 64 must fail")
	}
}

func TestMotionCodeRoundTripAll(t *testing.T) {
	var w bits.Writer
	for v := -16; v <= 16; v++ {
		if err := EncodeMotionCode(&w, v); err != nil {
			t.Fatal(err)
		}
	}
	r := bits.NewReader(w.Bytes())
	for v := -16; v <= 16; v++ {
		got, err := DecodeMotionCode(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("motion got %d want %d", got, v)
		}
	}
	if err := EncodeMotionCode(&w, 17); err == nil {
		t.Fatal("motion 17 must fail")
	}
}

func TestDCDifferentialRoundTrip(t *testing.T) {
	for _, luma := range []bool{true, false} {
		var w bits.Writer
		var vals []int32
		for d := int32(-2047); d <= 2047; d += 13 {
			vals = append(vals, d)
		}
		vals = append(vals, 0, 1, -1, 2047, -2047)
		for _, d := range vals {
			if err := EncodeDCDifferential(&w, d, luma); err != nil {
				t.Fatal(err)
			}
		}
		r := bits.NewReader(w.Bytes())
		for _, d := range vals {
			got, err := DecodeDCDifferential(r, luma)
			if err != nil {
				t.Fatal(err)
			}
			if got != d {
				t.Fatalf("luma=%v: got %d want %d", luma, got, d)
			}
		}
	}
}

func TestDCDifferentialTooLarge(t *testing.T) {
	var w bits.Writer
	if err := EncodeDCDifferential(&w, 4096, true); err == nil {
		t.Fatal("oversized DC differential must fail")
	}
}

func TestCoefRoundTripExhaustiveVLC(t *testing.T) {
	// Every pair that has a VLC round-trips through it, both signs.
	for _, tableOne := range []bool{false, true} {
		tab := selectDCT(tableOne, false)
		for sym := range tab.enc {
			run, level := int(sym>>12), sym&0xFFF
			for _, sgn := range []int32{1, -1} {
				var w bits.Writer
				if err := EncodeCoef(&w, tableOne, false, run, sgn*level); err != nil {
					t.Fatal(err)
				}
				EncodeEOB(&w, tableOne)
				r := bits.NewReader(w.Bytes())
				gr, gl, eob, err := DecodeCoef(r, tableOne, false)
				if err != nil || eob {
					t.Fatalf("tableOne=%v (%d,%d): err=%v eob=%v", tableOne, run, sgn*level, err, eob)
				}
				if gr != run || gl != sgn*level {
					t.Fatalf("tableOne=%v: got (%d,%d) want (%d,%d)", tableOne, gr, gl, run, sgn*level)
				}
				_, _, eob, err = DecodeCoef(r, tableOne, false)
				if err != nil || !eob {
					t.Fatalf("expected EOB, err=%v", err)
				}
			}
		}
	}
}

func TestCoefEscape(t *testing.T) {
	var w bits.Writer
	cases := []struct {
		run   int
		level int32
	}{
		{0, 41}, {0, 2047}, {0, -2047}, {5, 100}, {63, 1}, {63, -1}, {20, -3},
	}
	for _, c := range cases {
		if err := EncodeCoef(&w, false, false, c.run, c.level); err != nil {
			t.Fatal(err)
		}
	}
	r := bits.NewReader(w.Bytes())
	for _, c := range cases {
		gr, gl, eob, err := DecodeCoef(r, false, false)
		if err != nil || eob {
			t.Fatalf("err=%v eob=%v", err, eob)
		}
		if gr != c.run || gl != c.level {
			t.Fatalf("got (%d,%d) want (%d,%d)", gr, gl, c.run, c.level)
		}
	}
}

func TestCoefFirstConvention(t *testing.T) {
	// First (0,1) in a non-intra block is the single bit '1'.
	var w bits.Writer
	if err := EncodeCoef(&w, false, true, 0, 1); err != nil {
		t.Fatal(err)
	}
	// 1 bit code + 1 sign bit = 2 bits.
	if w.BitsWritten() != 2 {
		t.Fatalf("first (0,1) used %d bits, want 2", w.BitsWritten())
	}
	r := bits.NewReader(w.Bytes())
	run, level, eob, err := DecodeCoef(r, false, true)
	if err != nil || eob || run != 0 || level != 1 {
		t.Fatalf("got run=%d level=%d eob=%v err=%v", run, level, eob, err)
	}

	// As a non-first coefficient it takes 2+1 bits and '10' means EOB.
	w.Reset()
	if err := EncodeCoef(&w, false, false, 0, 1); err != nil {
		t.Fatal(err)
	}
	if w.BitsWritten() != 3 {
		t.Fatalf("next (0,1) used %d bits, want 3", w.BitsWritten())
	}
}

func TestCoefErrors(t *testing.T) {
	var w bits.Writer
	if err := EncodeCoef(&w, false, false, 0, 0); err == nil {
		t.Fatal("level 0 must fail")
	}
	if err := EncodeCoef(&w, false, false, 0, 2048); err == nil {
		t.Fatal("level 2048 must fail")
	}
	if err := EncodeCoef(&w, false, false, 64, 1); err == nil {
		t.Fatal("run 64 must fail")
	}
	// Forbidden escape level -2048 on the wire.
	w.Reset()
	escape.put(&w)
	w.Put(0, 6)
	w.Put(0x800, 12)
	if _, _, _, err := DecodeCoef(bits.NewReader(w.Bytes()), false, false); err == nil {
		t.Fatal("escape level -2048 must fail")
	}
	// Truncated stream.
	if _, _, _, err := DecodeCoef(bits.NewReader(nil), false, false); err == nil {
		t.Fatal("empty stream must fail")
	}
}

func TestCoefRandomStreamQuick(t *testing.T) {
	f := func(seed int64, tableOne bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		runs := make([]int, n)
		levels := make([]int32, n)
		var w bits.Writer
		for i := 0; i < n; i++ {
			runs[i] = rng.Intn(64)
			for levels[i] == 0 {
				levels[i] = int32(rng.Intn(4095) - 2047)
			}
			first := i == 0 && !tableOne
			if err := EncodeCoef(&w, tableOne, first, runs[i], levels[i]); err != nil {
				return false
			}
		}
		EncodeEOB(&w, tableOne)
		r := bits.NewReader(w.Bytes())
		for i := 0; i < n; i++ {
			first := i == 0 && !tableOne
			gr, gl, eob, err := DecodeCoef(r, tableOne, first)
			if err != nil || eob || gr != runs[i] || gl != levels[i] {
				return false
			}
		}
		_, _, eob, err := DecodeCoef(r, tableOne, false)
		return err == nil && eob
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxVLCLevel(t *testing.T) {
	if got := MaxVLCLevel(false, 0); got != 40 {
		t.Errorf("B-14 max level for run 0 = %d, want 40", got)
	}
	if got := MaxVLCLevel(false, 31); got != 1 {
		t.Errorf("B-14 max level for run 31 = %d, want 1", got)
	}
	if got := MaxVLCLevel(false, 32); got != 0 {
		t.Errorf("B-14 run 32 should have no VLC, got %d", got)
	}
}

func TestDecodeInvalidCode(t *testing.T) {
	// '00000000 00000000' is not a valid B-14 code start.
	r := bits.NewReader([]byte{0, 0, 0, 0})
	if _, _, _, err := DecodeCoef(r, false, false); err == nil {
		t.Fatal("all-zero bits must be an invalid coefficient code")
	}
	if _, err := DecodeMBAddrInc(bits.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("all-zero bits must be an invalid MBA code")
	}
}

// BenchmarkDecodeCoef times the one-symbol wrapper over the compact
// coefficient tables. Slice decoding does not go through it: its cost per
// block is BenchmarkDecodeBlock in internal/mpeg2.
func BenchmarkDecodeCoef(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var w bits.Writer
	const n = 4096
	for i := 0; i < n; i++ {
		lvl := int32(rng.Intn(10) + 1)
		if rng.Intn(2) == 0 {
			lvl = -lvl
		}
		if err := EncodeCoef(&w, false, false, rng.Intn(4), lvl); err != nil {
			b.Fatal(err)
		}
	}
	data := w.Bytes()
	b.ResetTimer()
	r := bits.NewReader(data)
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			r = bits.NewReader(data)
		}
		if _, _, _, err := DecodeCoef(r, false, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeCoef(b *testing.B) {
	var w bits.Writer
	for i := 0; i < b.N; i++ {
		if w.Len() > 1<<20 {
			w.Reset()
		}
		if err := EncodeCoef(&w, false, false, i%4, int32(i%9)+1); err != nil {
			b.Fatal(err)
		}
	}
}
