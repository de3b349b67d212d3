// Package bits implements MSB-first bit-level I/O over byte buffers and
// MPEG startcode scanning.
//
// MPEG-2 video bitstreams are a sequence of big-endian bit fields. All
// syntactic landmarks the parallel decoder relies on (sequence, GOP, picture
// and slice boundaries) are marked with byte-aligned startcodes
// (0x00 0x00 0x01 <code>), which is what makes random access — and therefore
// task-level parallelism — possible without decoding.
package bits

// Writer accumulates bits MSB-first into a growing byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // bit accumulator, top `n` bits valid
	n    uint   // number of valid bits in cur (always < 8 after flush)
	bits int64  // total bits written
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// Put writes the low n bits of v, MSB first. n must be in [0,32].
func (w *Writer) Put(v uint32, n uint) {
	if n > 32 {
		panic("bits: Put width > 32")
	}
	w.bits += int64(n)
	v &= widthMask32(n)
	// Accumulate into cur (holds < 8 bits between calls, so max 40 bits fits in 64).
	w.cur = w.cur<<n | uint64(v)
	w.n += n
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.cur>>w.n))
	}
}

// Put64 writes the low n bits of v, MSB first. n must be in [0,64].
func (w *Writer) Put64(v uint64, n uint) {
	if n > 32 {
		w.Put(uint32(v>>32), n-32)
		n = 32
	}
	w.Put(uint32(v), n)
}

// Align pads with zero bits to the next byte boundary.
func (w *Writer) Align() {
	if w.n != 0 {
		w.Put(0, 8-w.n)
	}
}

// StartCode byte-aligns the stream and writes the 32-bit startcode
// 0x000001<code>.
func (w *Writer) StartCode(code byte) {
	w.Align()
	w.Put(0x000001, 24)
	w.Put(uint32(code), 8)
}

// Len returns the number of whole bytes flushed so far (excluding any
// partial byte still in the accumulator).
func (w *Writer) Len() int { return len(w.buf) }

// BitsWritten returns the total number of bits written, including bits not
// yet flushed to a whole byte.
func (w *Writer) BitsWritten() int64 { return w.bits }

// Bytes byte-aligns the stream and returns the underlying buffer.
// The returned slice is owned by the Writer until Reset is called.
func (w *Writer) Bytes() []byte {
	w.Align()
	return w.buf
}

// Reset truncates the writer to empty, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur = 0
	w.n = 0
	w.bits = 0
}

func widthMask32(n uint) uint32 {
	if n >= 32 {
		return ^uint32(0)
	}
	return 1<<n - 1
}
