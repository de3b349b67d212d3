package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
	mathbits "math/bits"
)

// ErrUnderflow is reported when a read runs past the end of the buffer.
var ErrUnderflow = errors.New("bits: read past end of stream")

// Reader consumes bits MSB-first from a byte slice.
//
// Reads past the end of the buffer set a sticky error (checked with Err) and
// return zeros, so straight-line parsing code can defer its error check to a
// syntactically convenient point. This mirrors how hardened bitstream
// decoders avoid a check per field without risking an out-of-range panic.
type Reader struct {
	data []byte
	pos  int64 // bit position
	err  error

	// Cached accumulator: acc holds the accBits bits of the stream
	// starting at bit accBase, left-justified. Peek serves from it with a
	// shift instead of re-gathering bytes; it stays valid across Read,
	// Skip and SeekBit because the underlying data never changes.
	// accBits == 0 marks the cache empty (the zero Reader is valid).
	acc     uint64
	accBase int64
	accBits int64
}

// NewReader returns a Reader over data. The Reader does not copy data.
func NewReader(data []byte) *Reader {
	return &Reader{data: data}
}

// Reset repoints the Reader at data with position and error cleared,
// allowing a Reader value to be reused without allocation.
func (r *Reader) Reset(data []byte) {
	r.data = data
	r.pos = 0
	r.err = nil
	r.accBits = 0
}

// Err returns the sticky error, if any read has gone past the end.
func (r *Reader) Err() error { return r.err }

// BitPos returns the current position in bits from the start of the buffer.
func (r *Reader) BitPos() int64 { return r.pos }

// BytePos returns the current position in whole bytes (rounded down).
func (r *Reader) BytePos() int64 { return r.pos >> 3 }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int64 { return int64(len(r.data))*8 - r.pos }

// SeekBit moves the read position to absolute bit offset p.
func (r *Reader) SeekBit(p int64) {
	if p < 0 || p > int64(len(r.data))*8 {
		r.err = fmt.Errorf("bits: seek to %d out of range: %w", p, ErrUnderflow)
		return
	}
	r.pos = p
}

// Read consumes and returns the next n bits (n in [0,32]), MSB first.
func (r *Reader) Read(n uint) uint32 {
	v := r.Peek(n)
	r.pos += int64(n)
	if r.pos > int64(len(r.data))*8 {
		r.pos = int64(len(r.data)) * 8
		if r.err == nil {
			r.err = ErrUnderflow
		}
	}
	return v
}

// Read64 consumes and returns the next n bits (n in [0,64]), MSB first.
func (r *Reader) Read64(n uint) uint64 {
	if n > 32 {
		hi := uint64(r.Read(n - 32))
		return hi<<32 | uint64(r.Read(32))
	}
	return uint64(r.Read(n))
}

// ReadBit consumes a single bit.
func (r *Reader) ReadBit() bool { return r.Read(1) != 0 }

// Peek returns the next n bits (n in [0,32]) without consuming them.
// Bits past the end of the buffer read as zero (and do not set the error;
// only consuming them via Read does).
func (r *Reader) Peek(n uint) uint32 {
	// Fast path: the cached accumulator covers [pos, pos+n).
	if off := r.pos - r.accBase; off >= 0 && off+int64(n) <= r.accBits && n <= 32 {
		return uint32(r.acc << uint64(off) >> (64 - n))
	}
	return r.peekRefill(n)
}

// peekRefill reloads the accumulator (a single 8-byte big-endian load when
// at least 8 bytes remain, a zero-padded byte gather near the buffer end)
// and answers the Peek from it.
func (r *Reader) peekRefill(n uint) uint32 {
	if n == 0 {
		return 0
	}
	if n > 32 {
		panic("bits: Peek width > 32")
	}
	byteIdx := int(r.pos >> 3)
	bitOff := uint(r.pos & 7)
	if byteIdx+8 <= len(r.data) {
		r.acc = binary.BigEndian.Uint64(r.data[byteIdx:])
		r.accBase = int64(byteIdx) * 8
		r.accBits = 64
		return uint32(r.acc << bitOff >> (64 - n))
	}
	// Tail: the cache records only the real bits, so reads running past
	// the end keep taking this path (and keep their zero-fill semantics).
	acc := r.gatherTail(byteIdx)
	r.acc = acc
	r.accBase = int64(byteIdx) * 8
	r.accBits = int64(len(r.data)-byteIdx) * 8
	if r.accBits < 0 {
		r.accBits = 0
	}
	return uint32(acc << bitOff >> (64 - n))
}

// gatherTail assembles the eight bytes starting at byteIdx big-endian,
// zero-filled past the end of the buffer.
func (r *Reader) gatherTail(byteIdx int) uint64 {
	var acc uint64
	for i := 0; i < 8; i++ {
		var b byte
		if byteIdx+i < len(r.data) {
			b = r.data[byteIdx+i]
		}
		acc = acc<<8 | uint64(b)
	}
	return acc
}

// Window returns the stream from the current position as a left-justified
// 64-bit word, and how many stream bits the word holds: 57 to 64, depending
// on the position within its byte; the bits below them are zero. Like Peek
// it does not move the position and reads bits past the end of the buffer
// as zero without setting the error, so a caller that decodes several
// symbols out of one window must bound what it consumes by Remaining and
// hand the total to Skip.
func (r *Reader) Window() (w uint64, n uint) {
	byteIdx := int(r.pos >> 3)
	bitOff := uint(r.pos & 7)
	if byteIdx+8 <= len(r.data) {
		return binary.BigEndian.Uint64(r.data[byteIdx:]) << bitOff, 64 - bitOff
	}
	return r.gatherTail(byteIdx) << bitOff, 64 - bitOff
}

// Skip consumes n bits.
func (r *Reader) Skip(n uint) {
	r.pos += int64(n)
	if r.pos > int64(len(r.data))*8 {
		r.pos = int64(len(r.data)) * 8
		if r.err == nil {
			r.err = ErrUnderflow
		}
	}
}

// AlignByte advances to the next byte boundary (no-op if already aligned).
func (r *Reader) AlignByte() {
	r.pos = (r.pos + 7) &^ 7
	if r.pos > int64(len(r.data))*8 {
		r.pos = int64(len(r.data)) * 8
	}
}

// NextStartCode aligns to a byte boundary and advances until the reader is
// positioned at the first byte of a 0x000001 startcode prefix. It returns
// the startcode value (the byte following the prefix) without consuming the
// code, or an error if no startcode remains.
func (r *Reader) NextStartCode() (byte, error) {
	r.AlignByte()
	i := int(r.pos >> 3)
	j := FindStartCode(r.data, i)
	if j < 0 {
		r.pos = int64(len(r.data)) * 8
		return 0, ErrUnderflow
	}
	r.pos = int64(j) * 8
	return r.data[j+3], nil
}

// ReadStartCode consumes a byte-aligned startcode and returns its code byte.
// It fails if the next 24 bits are not the 0x000001 prefix.
func (r *Reader) ReadStartCode() (byte, error) {
	r.AlignByte()
	if r.Remaining() < 32 {
		r.err = ErrUnderflow
		return 0, r.err
	}
	if prefix := r.Read(24); prefix != 0x000001 {
		err := fmt.Errorf("bits: expected startcode prefix at byte %d, got %06x", r.BytePos()-3, prefix)
		if r.err == nil {
			r.err = err
		}
		return 0, err
	}
	return byte(r.Read(8)), nil
}

// scalarScan forces the byte-at-a-time reference scan in place of the
// word-at-a-time SWAR scan. The kernel level sets it: true at
// kernels.LevelScalar, false on every other tier.
var scalarScan = false

// FindStartCode returns the byte index of the first startcode prefix
// (0x00 0x00 0x01) at or after index from, or -1 if none. The index points
// at the first 0x00 byte; the code byte is at index+3.
//
// The fast path walks the buffer a uint64 at a time using the SWAR
// zero-byte detector (v-0x01…01) &^ v & 0x80…80: a word with no zero byte
// cannot contain the start of a prefix, so compressed payload (where zero
// bytes are rare) is skipped at close to memory bandwidth — the property
// the scan process's throughput rests on.
func FindStartCode(data []byte, from int) int {
	if from < 0 {
		from = 0
	}
	if scalarScan {
		return findStartCodeScalar(data, from)
	}
	const (
		lo = 0x0101010101010101
		hi = 0x8080808080808080
	)
	i, n := from, len(data)
	// 32-byte strides: the four per-word zero-byte masks are ORed so the
	// common all-payload case costs one test per 32 bytes. A stride with
	// no zero byte cannot contain the start of a prefix (a straddling
	// prefix would need its zeros inside the stride).
	for i+32 <= n {
		d := data[i : i+32 : i+32]
		v0 := binary.LittleEndian.Uint64(d)
		v1 := binary.LittleEndian.Uint64(d[8:16])
		v2 := binary.LittleEndian.Uint64(d[16:24])
		v3 := binary.LittleEndian.Uint64(d[24:32])
		z0 := (v0 - lo) &^ v0 & hi
		z1 := (v1 - lo) &^ v1 & hi
		z2 := (v2 - lo) &^ v2 & hi
		z3 := (v3 - lo) &^ v3 & hi
		if z0|z1|z2|z3 == 0 {
			i += 32
			continue
		}
		// A prefix can only start at a zero byte, and the detector never
		// misses one (its false positives — a 0x01 just above a zero lane,
		// from borrow ripple — merely add a candidate the verification
		// rejects). Walk the flagged positions in ascending order.
		for w, zw := range [4]uint64{z0, z1, z2, z3} {
			for ; zw != 0; zw &= zw - 1 {
				j := i + w*8 + mathbits.TrailingZeros64(zw)>>3
				if j+3 < n && data[j] == 0 && data[j+1] == 0 && data[j+2] == 1 {
					return j
				}
			}
		}
		i += 32
	}
	return findStartCodeScalar(data, i)
}

// findStartCodeScalar is the byte-at-a-time reference: the classic
// two-zero scan that looks at every position where data[i+2] could
// complete a prefix, stepping on mismatches by the distance the failed
// byte tells us is safe.
func findStartCodeScalar(data []byte, from int) int {
	for i := from; i+3 < len(data); {
		if data[i+2] > 1 {
			i += 3
			continue
		}
		if data[i+2] == 1 {
			if data[i] == 0 && data[i+1] == 0 {
				return i
			}
			i += 3
			continue
		}
		i++
	}
	return -1
}
