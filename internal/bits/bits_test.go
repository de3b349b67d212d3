package bits

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"mpeg2par/internal/kernels"
)

func TestWriterBasic(t *testing.T) {
	var w Writer
	w.Put(0b101, 3)
	w.Put(0b01, 2)
	w.Put(0b110, 3)
	got := w.Bytes()
	want := []byte{0b10101110}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %08b want %08b", got, want)
	}
	if w.BitsWritten() != 8 {
		t.Fatalf("BitsWritten = %d, want 8", w.BitsWritten())
	}
}

func TestWriterAlign(t *testing.T) {
	var w Writer
	w.Put(0b1, 1)
	w.Align()
	w.Put(0xAB, 8)
	got := w.Bytes()
	want := []byte{0x80, 0xAB}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %x want %x", got, want)
	}
	// Align when already aligned must be a no-op.
	w.Align()
	if w.Len() != 2 {
		t.Fatalf("Len after redundant Align = %d, want 2", w.Len())
	}
}

func TestWriterStartCode(t *testing.T) {
	var w Writer
	w.Put(0b11, 2)
	w.StartCode(0xB3)
	got := w.Bytes()
	want := []byte{0xC0, 0x00, 0x00, 0x01, 0xB3}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %x want %x", got, want)
	}
}

func TestWriterPut64(t *testing.T) {
	var w Writer
	w.Put64(0x0123456789ABCDEF, 64)
	got := w.Bytes()
	want := []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %x want %x", got, want)
	}
}

func TestWriterZeroWidth(t *testing.T) {
	var w Writer
	w.Put(0xFFFF, 0)
	w.Put(1, 1)
	if got := w.Bytes(); !bytes.Equal(got, []byte{0x80}) {
		t.Fatalf("got %x", got)
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.Put(0xFF, 8)
	w.Reset()
	if w.Len() != 0 || w.BitsWritten() != 0 {
		t.Fatal("Reset did not clear state")
	}
	w.Put(0x0F, 4)
	if got := w.Bytes(); !bytes.Equal(got, []byte{0xF0}) {
		t.Fatalf("got %x", got)
	}
}

func TestReaderBasic(t *testing.T) {
	r := NewReader([]byte{0b10101110, 0xAB})
	if got := r.Read(3); got != 0b101 {
		t.Fatalf("Read(3) = %b", got)
	}
	if got := r.Peek(5); got != 0b01110 {
		t.Fatalf("Peek(5) = %05b", got)
	}
	if got := r.Read(5); got != 0b01110 {
		t.Fatalf("Read(5) = %05b", got)
	}
	if got := r.Read(8); got != 0xAB {
		t.Fatalf("Read(8) = %x", got)
	}
	if r.Err() != nil {
		t.Fatalf("unexpected err: %v", r.Err())
	}
}

func TestReaderUnderflow(t *testing.T) {
	r := NewReader([]byte{0xFF})
	r.Read(8)
	if r.Err() != nil {
		t.Fatal("err too early")
	}
	if got := r.Read(4); got != 0 {
		t.Fatalf("underflow read = %x, want 0", got)
	}
	if r.Err() == nil {
		t.Fatal("expected sticky underflow error")
	}
	// Error stays sticky.
	r.Read(8)
	if r.Err() == nil {
		t.Fatal("error lost")
	}
}

func TestReaderPeekPastEnd(t *testing.T) {
	r := NewReader([]byte{0x80})
	r.Read(7)
	if got := r.Peek(16); got != 0 {
		t.Fatalf("Peek past end = %x, want 0 bits beyond buffer", got)
	}
	if r.Err() != nil {
		t.Fatal("Peek must not set error")
	}
}

func TestReaderSeekAlign(t *testing.T) {
	r := NewReader([]byte{0xDE, 0xAD, 0xBE, 0xEF})
	r.Read(3)
	r.AlignByte()
	if r.BitPos() != 8 {
		t.Fatalf("pos = %d", r.BitPos())
	}
	if got := r.Read(8); got != 0xAD {
		t.Fatalf("got %x", got)
	}
	r.SeekBit(0)
	if got := r.Read(8); got != 0xDE {
		t.Fatalf("got %x", got)
	}
	r.SeekBit(99)
	if r.Err() == nil {
		t.Fatal("expected seek error")
	}
}

func TestReaderRead64(t *testing.T) {
	data := []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF}
	r := NewReader(data)
	if got := r.Read64(64); got != 0x0123456789ABCDEF {
		t.Fatalf("got %x", got)
	}
}

func TestFindStartCode(t *testing.T) {
	cases := []struct {
		data []byte
		from int
		want int
	}{
		{[]byte{0, 0, 1, 0xB3}, 0, 0},
		{[]byte{0xFF, 0, 0, 1, 0xB3}, 0, 1},
		{[]byte{0, 0, 0, 1, 0xB3}, 0, 1},
		{[]byte{0, 1, 1, 0, 0, 1, 0x42}, 0, 3},
		{[]byte{0, 0, 1}, 0, -1}, // no code byte
		{[]byte{0, 0, 2, 0, 0, 1, 7}, 0, 3},
		{[]byte{0, 0, 1, 0xB3, 0, 0, 1, 0x00}, 1, 4},
		{nil, 0, -1},
		{[]byte{0, 0, 1, 5}, -3, 0},
	}
	for i, c := range cases {
		if got := FindStartCode(c.data, c.from); got != c.want {
			t.Errorf("case %d: FindStartCode(%v, %d) = %d, want %d", i, c.data, c.from, got, c.want)
		}
	}
}

func TestFindStartCodeExhaustiveSmall(t *testing.T) {
	// Brute-force oracle over all 4-byte buffers drawn from {0,1,2}.
	oracle := func(d []byte, from int) int {
		for i := from; i+3 < len(d); i++ {
			if d[i] == 0 && d[i+1] == 0 && d[i+2] == 1 {
				return i
			}
		}
		return -1
	}
	vals := []byte{0, 1, 2}
	d := make([]byte, 6)
	var rec func(k int)
	rec = func(k int) {
		if k == len(d) {
			if got, want := FindStartCode(d, 0), oracle(d, 0); got != want {
				t.Fatalf("FindStartCode(%v) = %d, want %d", d, got, want)
			}
			return
		}
		for _, v := range vals {
			d[k] = v
			rec(k + 1)
		}
	}
	rec(0)
}

func TestNextStartCode(t *testing.T) {
	data := []byte{0xAA, 0x00, 0x00, 0x01, 0xB8, 0xFF, 0x00, 0x00, 0x01, 0x00}
	r := NewReader(data)
	code, err := r.NextStartCode()
	if err != nil || code != 0xB8 {
		t.Fatalf("code=%x err=%v", code, err)
	}
	// Position should be at the prefix, so ReadStartCode consumes it.
	code, err = r.ReadStartCode()
	if err != nil || code != 0xB8 {
		t.Fatalf("ReadStartCode=%x err=%v", code, err)
	}
	code, err = r.NextStartCode()
	if err != nil || code != 0x00 {
		t.Fatalf("second code=%x err=%v", code, err)
	}
	r.Skip(32)
	if _, err := r.NextStartCode(); err == nil {
		t.Fatal("expected error at end of stream")
	}
}

func TestReadStartCodeBad(t *testing.T) {
	r := NewReader([]byte{0x12, 0x34, 0x56, 0x78})
	if _, err := r.ReadStartCode(); err == nil {
		t.Fatal("expected prefix error")
	}
}

// TestRoundTripQuick checks Writer→Reader round-trips for random field
// sequences, the core invariant everything above the bit layer depends on.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		widths := make([]uint, n)
		vals := make([]uint32, n)
		var w Writer
		for i := range widths {
			widths[i] = uint(1 + rng.Intn(32))
			vals[i] = rng.Uint32() & widthMask32(widths[i])
			w.Put(vals[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := range widths {
			if got := r.Read(widths[i]); got != vals[i] {
				t.Logf("seed %d field %d: got %x want %x", seed, i, got, vals[i])
				return false
			}
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPeekMatchesRead verifies Peek is a pure prefix of Read at random
// positions and widths.
func TestPeekMatchesRead(t *testing.T) {
	f := func(data []byte, pos uint16, width uint8) bool {
		if len(data) == 0 {
			return true
		}
		n := uint(width%32) + 1
		p := int64(pos) % (int64(len(data)) * 8)
		r1 := NewReader(data)
		r1.SeekBit(p)
		r2 := NewReader(data)
		r2.SeekBit(p)
		return r1.Peek(n) == r2.Read(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderHighBitWidths(t *testing.T) {
	// A full 32-bit read crossing byte boundaries at every phase.
	data := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE, 0xBA, 0xBE}
	for phase := uint(0); phase < 8; phase++ {
		r := NewReader(data)
		r.Skip(phase)
		got := r.Read(32)
		r2 := NewReader(data)
		r2.Skip(phase)
		var want uint32
		for i := 0; i < 32; i++ {
			want = want<<1 | r2.Read(1)
		}
		if got != want {
			t.Fatalf("phase %d: got %08x want %08x", phase, got, want)
		}
	}
}

func BenchmarkWriterPut(b *testing.B) {
	var w Writer
	for i := 0; i < b.N; i++ {
		if w.Len() > 1<<20 {
			w.Reset()
		}
		w.Put(uint32(i), uint(i%17)+1)
	}
}

func BenchmarkReaderRead(b *testing.B) {
	data := make([]byte, 1<<16)
	for i := range data {
		data[i] = byte(i * 7)
	}
	r := NewReader(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Remaining() < 64 {
			r.SeekBit(0)
		}
		r.Read(uint(i%17) + 1)
	}
}

func BenchmarkFindStartCode(b *testing.B) {
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	copy(data[len(data)-4:], []byte{0, 0, 1, 0xB3})
	run := func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if FindStartCode(data, 0) < 0 {
				b.Fatal("missed")
			}
		}
	}
	b.Run("swar", run)
	// The byte-at-a-time reference scan (skips by the distance the failed
	// third byte allows, like the seed decoder's scan).
	b.Run("skip3", func(b *testing.B) {
		prev := kernels.Active()
		kernels.Set(kernels.LevelScalar)
		defer kernels.Set(prev)
		run(b)
	})
	// A truly naive scan checking every position — the lower bound the
	// word-at-a-time kernel is measured against.
	b.Run("naive", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			found := -1
			for j := 0; j+3 < len(data); j++ {
				if data[j] == 0 && data[j+1] == 0 && data[j+2] == 1 {
					found = j
					break
				}
			}
			if found < 0 {
				b.Fatal("missed")
			}
		}
	})
}

// TestFindStartCodeSWARvsScalar compares the word-at-a-time scan against
// the byte-at-a-time reference on structured buffers: prefixes planted at
// every offset relative to the 8-byte word grid (including straddling a
// word boundary), trailing partial words, and every `from` offset.
func TestFindStartCodeSWARvsScalar(t *testing.T) {
	check := func(data []byte) {
		t.Helper()
		for from := -1; from <= len(data); from++ {
			got := FindStartCode(data, from)
			want := findStartCodeScalar(data, max(from, 0))
			if got != want {
				t.Fatalf("FindStartCode(%v, %d) = %d, scalar reference = %d", data, from, got, want)
			}
		}
	}
	// A prefix at every possible word phase, with varying tail lengths.
	for phase := 0; phase < 11; phase++ {
		for tail := 0; tail < 10; tail++ {
			data := make([]byte, phase+3+tail)
			for i := range data {
				data[i] = byte(0x40 + i)
			}
			copy(data[phase:], []byte{0, 0, 1})
			check(data)
		}
	}
	// Runs of zeros around word boundaries (000001 inside 00...0 runs).
	check([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xB3})
	check([]byte{0xFF, 0, 0, 0, 0, 0, 0, 1, 0xB3, 0, 0, 1, 0x42})
	check(nil)
	check([]byte{0, 0, 1})
}

// TestScalarLevelScansByteAtATime: the kernel level drives the scan like
// every other kernel, so forcing kernels.LevelScalar (as MPEG2_KERNELS=scalar
// does) must put FindStartCode on the byte-at-a-time reference, and any
// other tier back on the word-at-a-time scan.
func TestScalarLevelScansByteAtATime(t *testing.T) {
	prev := kernels.Active()
	t.Cleanup(func() { kernels.Set(prev) })
	for _, l := range []kernels.Level{kernels.LevelScalar, kernels.LevelSWAR, kernels.LevelScalar, kernels.LevelASM} {
		kernels.Set(l)
		if scalarScan != (l == kernels.LevelScalar) {
			t.Fatalf("after kernels.Set(%v): scalar scan %v", l, scalarScan)
		}
	}
}

// peekRef is the pre-accumulator byte-gather Peek, kept as the semantic
// reference: up to 5 bytes, zero-filled past the end of the buffer.
func peekRef(data []byte, pos int64, n uint) uint32 {
	if n == 0 {
		return 0
	}
	byteIdx := int(pos >> 3)
	bitOff := uint(pos & 7)
	var acc uint64
	for i := 0; i < 5; i++ {
		var b byte
		if byteIdx+i < len(data) {
			b = data[byteIdx+i]
		}
		acc = acc<<8 | uint64(b)
	}
	acc <<= 24 + bitOff
	return uint32(acc >> (64 - n))
}

// TestPeekExhaustiveTail checks every (position, width) pair over a small
// buffer against the reference gather — in particular every read that
// straddles the last 8 bytes, where the single-load fast path must hand
// over to the zero-filled tail gather.
func TestPeekExhaustiveTail(t *testing.T) {
	data := make([]byte, 19)
	for i := range data {
		data[i] = byte(0x9E*i + 0x37)
	}
	for pos := int64(0); pos <= int64(len(data))*8; pos++ {
		for n := uint(0); n <= 32; n++ {
			r := NewReader(data)
			r.SeekBit(pos)
			if got, want := r.Peek(n), peekRef(data, pos, n); got != want {
				t.Fatalf("Peek(%d) at bit %d = %0*b, want %0*b", n, pos, n, got, n, want)
			}
			if r.Err() != nil {
				t.Fatalf("Peek(%d) at bit %d set error %v", n, pos, r.Err())
			}
		}
	}
}

// TestWindowExhaustiveTail checks Window at every position of a small
// buffer against the reference gather, 32 bits at a time: the bits it
// reports, left-justified, zeros below them and past the end of the buffer,
// and a position and error left alone.
func TestWindowExhaustiveTail(t *testing.T) {
	data := make([]byte, 19)
	for i := range data {
		data[i] = byte(0x9E*i + 0x37)
	}
	for pos := int64(0); pos <= int64(len(data))*8; pos++ {
		r := NewReader(data)
		r.SeekBit(pos)
		w, n := r.Window()
		if n != 64-uint(pos&7) {
			t.Fatalf("Window at bit %d holds %d bits, want %d", pos, n, 64-uint(pos&7))
		}
		want := uint64(peekRef(data, pos, 32))<<32 | uint64(peekRef(data, pos+32, 32))
		want &= ^uint64(0) << (64 - n)
		if w != want {
			t.Fatalf("Window at bit %d = %064b, want %064b", pos, w, want)
		}
		if r.BitPos() != pos || r.Err() != nil {
			t.Fatalf("Window at bit %d moved the reader to %d (err %v)", pos, r.BitPos(), r.Err())
		}
	}
}

// TestPeekCacheInvalidation stresses the accumulator across interleaved
// Read/Skip/SeekBit, including backward seeks into and out of the cached
// window.
func TestPeekCacheInvalidation(t *testing.T) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i*193 + 11)
	}
	r := NewReader(data)
	pos := int64(0)
	step := []int64{1, 7, 8, 13, 31, -5, 64, -63, 17, 3}
	for i := 0; i < 4000; i++ {
		pos += step[i%len(step)]
		if pos < 0 {
			pos = 0
		}
		if pos > int64(len(data))*8 {
			pos = 0
		}
		r.SeekBit(pos)
		n := uint(i%33) % 33
		if got, want := r.Peek(n), peekRef(data, pos, n); got != want {
			t.Fatalf("step %d: Peek(%d) at bit %d = %x, want %x", i, n, pos, got, want)
		}
		// Consume a little so the cache is exercised by Read too.
		adv := uint(i % 9)
		if got, want := r.Read(adv), peekRef(data, pos, adv); got != want {
			t.Fatalf("step %d: Read(%d) at bit %d = %x, want %x", i, adv, pos, got, want)
		}
		pos += int64(adv)
	}
}

func TestReaderReset(t *testing.T) {
	a := []byte{0xAB, 0xCD, 0xEF, 0x01, 0x23, 0x45, 0x67, 0x89, 0xAB}
	b := []byte{0x12, 0x34}
	r := NewReader(a)
	if got := r.Read(16); got != 0xABCD {
		t.Fatalf("Read(16) = %04x", got)
	}
	r.Read64(64) // run past the end: sticky error set
	if r.Err() == nil {
		t.Fatal("expected underflow")
	}
	r.Reset(b)
	if r.Err() != nil || r.BitPos() != 0 {
		t.Fatalf("Reset left err=%v pos=%d", r.Err(), r.BitPos())
	}
	// The stale accumulator (loaded from a) must not serve reads from b.
	if got := r.Read(16); got != 0x1234 {
		t.Fatalf("after Reset Read(16) = %04x, want 1234", got)
	}
}

func BenchmarkReaderPeek(b *testing.B) {
	data := make([]byte, 1<<16)
	for i := range data {
		data[i] = byte(i * 7)
	}
	r := NewReader(data)
	var sink uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Remaining() < 64 {
			r.SeekBit(0)
		}
		sink += r.Peek(17) // a DCT-table-width probe
		r.Skip(uint(i%11) + 1)
	}
	_ = sink
}
