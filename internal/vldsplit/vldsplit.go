// Package vldsplit implements the intra-slice parallel entropy-decode
// side channel: a compact index of macroblock-row split points inside a
// slice. Slice-level parallelism collapses on streams coded with one
// slice per picture — the VLD is a serial chain of variable-length
// codes. A split point breaks the chain by recording, for a macroblock
// boundary inside the slice, the exact bit offset and the predictive
// VLD state there (mpeg2.SplitState); the decoder can then fan one tall
// slice across the worker pool as independent row-segments and verify
// at the joins that every segment stopped exactly where the next one
// started, bit-exact against a sequential decode.
//
// Index entries are keyed by slice content (an FNV-64a hash plus the
// byte length), not by stream position, so an index built once keeps
// working when the stream is re-chunked, re-muxed, or decoded through
// the streaming path where byte offsets are rebased per GOP.
package vldsplit

import (
	"encoding/binary"
	"fmt"
	"sort"

	"mpeg2par/internal/mpeg2"
)

// Point is one split point inside a slice: the next coded macroblock
// starts at bit offset BitOff (relative to the first byte of the slice
// startcode) and must be decoded under exactly State.
type Point struct {
	BitOff int64
	State  mpeg2.SplitState
}

// SliceKey identifies a slice by its payload content.
type SliceKey struct {
	Hash uint64 // FNV-64a over the slice's bytes, startcode included
	Len  int    // byte length of the slice
}

// KeyOf hashes a slice's byte range (startcode through last payload
// byte) into its index key. The FNV-1a loop is written out: the scan
// process calls this for every slice of every picture, and hash/fnv's
// hasher is an allocation behind an interface.
func KeyOf(data []byte) SliceKey {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for _, b := range data {
		h = (h ^ uint64(b)) * 1099511628211 // FNV-64 prime
	}
	return SliceKey{Hash: h, Len: len(data)}
}

// Index maps slice content to its split points. The zero value is not
// usable; call NewIndex. An Index is safe for concurrent readers once
// built (Lookup only); Add and UnmarshalBinary must not race with use.
type Index struct {
	m map[SliceKey][]Point
}

// NewIndex returns an empty split index.
func NewIndex() *Index {
	return &Index{m: make(map[SliceKey][]Point)}
}

// validatePoints checks the structural invariants of a slice's split
// points: strictly increasing bit offsets inside the slice, strictly
// increasing macroblock addresses, and legal quantiser scale codes.
// Semantic validity (that the state really is the sequential decoder's
// state at that offset) is established at decode time by the verify
// rule, so even a structurally valid but wrong ("poisoned") index can
// never change decoded pixels.
func validatePoints(pts []Point, byteLen int) error {
	prevBit := int64(0)
	prevAddr := -1
	for i, pt := range pts {
		if pt.BitOff <= prevBit || pt.BitOff >= int64(byteLen)*8 {
			return fmt.Errorf("vldsplit: point %d bit offset %d out of order or range", i, pt.BitOff)
		}
		if pt.State.PrevAddr <= prevAddr || pt.State.PrevAddr < 0 {
			return fmt.Errorf("vldsplit: point %d address %d not increasing", i, pt.State.PrevAddr)
		}
		if pt.State.QScale < 1 || pt.State.QScale > 31 {
			return fmt.Errorf("vldsplit: point %d quantiser scale %d out of range", i, pt.State.QScale)
		}
		prevBit, prevAddr = pt.BitOff, pt.State.PrevAddr
	}
	return nil
}

// Add records the split points for the slice with the given bytes.
// Points must be ordered; a slice with no points is not recorded.
func (ix *Index) Add(data []byte, pts []Point) error {
	if len(pts) == 0 {
		return nil
	}
	if err := validatePoints(pts, len(data)); err != nil {
		return err
	}
	ix.m[KeyOf(data)] = append([]Point(nil), pts...)
	return nil
}

// Lookup returns the split points recorded for the slice with the given
// bytes, or nil. The returned slice must not be modified.
func (ix *Index) Lookup(data []byte) []Point {
	if ix == nil || ix.m == nil {
		return nil
	}
	return ix.m[KeyOf(data)]
}

// Slices returns the number of indexed slices.
func (ix *Index) Slices() int {
	if ix == nil {
		return 0
	}
	return len(ix.m)
}

// Points returns the total number of split points across all slices.
func (ix *Index) Points() int {
	if ix == nil {
		return 0
	}
	n := 0
	for _, pts := range ix.m {
		n += len(pts)
	}
	return n
}

// Binary format: an 8-byte magic+version, a slice count, then per slice
// the key and its points. All integers are fixed-width big-endian — the
// index is a side-channel meant to live next to the stream file, so the
// format is deliberately boring.
const (
	indexMagic   = "MP2VSIX\x01"
	pointSize    = 8 + 4 + 1 + 1 + 3*4 + 8*4 // BitOff, PrevAddr, QScale, flags, DCPred, PMV
	maxSlicePts  = 1 << 16
	maxIdxSlices = 1 << 24
)

// MarshalBinary serializes the index. Slices are emitted in a
// deterministic (key-sorted) order so equal indexes marshal equal.
func (ix *Index) MarshalBinary() ([]byte, error) {
	keys := make([]SliceKey, 0, len(ix.m))
	for k := range ix.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Hash != keys[j].Hash {
			return keys[i].Hash < keys[j].Hash
		}
		return keys[i].Len < keys[j].Len
	})
	out := make([]byte, 0, len(indexMagic)+4+len(keys)*(16+pointSize))
	out = append(out, indexMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(keys)))
	for _, k := range keys {
		pts := ix.m[k]
		if len(pts) > maxSlicePts {
			return nil, fmt.Errorf("vldsplit: %d split points in one slice", len(pts))
		}
		out = binary.BigEndian.AppendUint64(out, k.Hash)
		out = binary.BigEndian.AppendUint32(out, uint32(k.Len))
		out = binary.BigEndian.AppendUint32(out, uint32(len(pts)))
		for _, pt := range pts {
			out = binary.BigEndian.AppendUint64(out, uint64(pt.BitOff))
			out = binary.BigEndian.AppendUint32(out, uint32(pt.State.PrevAddr))
			flags := byte(0)
			if pt.State.PrevFwd {
				flags |= 1
			}
			if pt.State.PrevBwd {
				flags |= 2
			}
			out = append(out, byte(pt.State.QScale), flags)
			for _, v := range pt.State.DCPred {
				out = binary.BigEndian.AppendUint32(out, uint32(v))
			}
			for r := 0; r < 2; r++ {
				for d := 0; d < 2; d++ {
					for c := 0; c < 2; c++ {
						out = binary.BigEndian.AppendUint32(out, uint32(int32(pt.State.PMV[r][d][c])))
					}
				}
			}
		}
	}
	return out, nil
}

// UnmarshalBinary replaces the index contents with the serialized form,
// validating structure as it reads. A structurally valid but
// semantically wrong index is harmless: the decoder's verify rule
// rejects any split whose segment states do not chain exactly.
func (ix *Index) UnmarshalBinary(b []byte) error {
	if len(b) < len(indexMagic)+4 || string(b[:len(indexMagic)]) != indexMagic {
		return fmt.Errorf("vldsplit: not a split index (bad magic)")
	}
	b = b[len(indexMagic):]
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if n > maxIdxSlices {
		return fmt.Errorf("vldsplit: implausible slice count %d", n)
	}
	m := make(map[SliceKey][]Point, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 16 {
			return fmt.Errorf("vldsplit: truncated index")
		}
		key := SliceKey{Hash: binary.BigEndian.Uint64(b), Len: int(binary.BigEndian.Uint32(b[8:]))}
		np := binary.BigEndian.Uint32(b[12:])
		b = b[16:]
		if np == 0 || np > maxSlicePts {
			return fmt.Errorf("vldsplit: slice %d has implausible point count %d", i, np)
		}
		if len(b) < int(np)*pointSize {
			return fmt.Errorf("vldsplit: truncated index")
		}
		pts := make([]Point, np)
		for j := range pts {
			pt := &pts[j]
			pt.BitOff = int64(binary.BigEndian.Uint64(b))
			pt.State.PrevAddr = int(int32(binary.BigEndian.Uint32(b[8:])))
			pt.State.QScale = int(b[12])
			flags := b[13]
			pt.State.PrevFwd = flags&1 != 0
			pt.State.PrevBwd = flags&2 != 0
			b = b[14:]
			for c := range pt.State.DCPred {
				pt.State.DCPred[c] = int32(binary.BigEndian.Uint32(b))
				b = b[4:]
			}
			for r := 0; r < 2; r++ {
				for d := 0; d < 2; d++ {
					for c := 0; c < 2; c++ {
						pt.State.PMV[r][d][c] = int(int32(binary.BigEndian.Uint32(b)))
						b = b[4:]
					}
				}
			}
		}
		if err := validatePoints(pts, key.Len); err != nil {
			return err
		}
		if _, dup := m[key]; dup {
			return fmt.Errorf("vldsplit: duplicate slice key in index")
		}
		m[key] = pts
	}
	if len(b) != 0 {
		return fmt.Errorf("vldsplit: %d trailing bytes after index", len(b))
	}
	ix.m = m
	return nil
}
