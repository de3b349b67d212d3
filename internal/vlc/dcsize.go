package vlc

import (
	"fmt"

	"mpeg2par/internal/bits"
)

// Table B-12: dct_dc_size_luminance, indexed by size 0..11.
var dcSizeLumaCodes = [12]Code{
	{0b100, 3}, {0b00, 2}, {0b01, 2}, {0b101, 3},
	{0b110, 3}, {0b1110, 4}, {0b11110, 5}, {0b111110, 6},
	{0b1111110, 7}, {0b11111110, 8}, {0b111111110, 9}, {0b111111111, 9},
}

// Table B-13: dct_dc_size_chrominance, indexed by size 0..11.
var dcSizeChromaCodes = [12]Code{
	{0b00, 2}, {0b01, 2}, {0b10, 2}, {0b110, 3},
	{0b1110, 4}, {0b11110, 5}, {0b111110, 6}, {0b1111110, 7},
	{0b11111110, 8}, {0b111111110, 9}, {0b1111111110, 10}, {0b1111111111, 10},
}

var (
	dcSizeLumaTable   = buildTable("dct_dc_size_luminance", dcEntries(dcSizeLumaCodes))
	dcSizeChromaTable = buildTable("dct_dc_size_chrominance", dcEntries(dcSizeChromaCodes))
)

func dcEntries(codes [12]Code) []entry {
	es := make([]entry, len(codes))
	for i := range codes {
		es[i] = entry{codes[i], int32(i)}
	}
	return es
}

// EncodeDCSize writes a dct_dc_size (0..11) for a luminance or chrominance
// block.
func EncodeDCSize(w *bits.Writer, size int, luma bool) error {
	if size < 0 || size > 11 {
		return fmt.Errorf("vlc: dct_dc_size %d out of range", size)
	}
	if luma {
		dcSizeLumaCodes[size].put(w)
	} else {
		dcSizeChromaCodes[size].put(w)
	}
	return nil
}

// DecodeDCSize reads a dct_dc_size for a luminance or chrominance block.
func DecodeDCSize(r *bits.Reader, luma bool) (int, error) {
	t := dcSizeChromaTable
	if luma {
		t = dcSizeLumaTable
	}
	sym, err := t.decode(r)
	if err != nil {
		return 0, err
	}
	return int(sym), nil
}

// DCSizeLookup returns the dct_dc_size whose code starts the left-justified
// stream window w and that code's length, or n = 0 when no code matches.
// The block decode of internal/mpeg2 reads the DC term through it; w must
// hold at least 10 meaningful bits.
func DCSizeLookup(w uint64, luma bool) (size, n uint) {
	t := dcSizeChromaTable
	if luma {
		t = dcSizeLumaTable
	}
	sym, n := t.lookup(w)
	return uint(sym), n
}

// DCDifferential maps the size-bit code that follows a dct_dc_size to the
// differential it stands for (§7.2.1); size must be in 1..11.
func DCDifferential(code int32, size uint) int32 {
	if half := int32(1) << (size - 1); code < half {
		return code - 2*half + 1
	}
	return code
}

// EncodeDCDifferential writes a DC differential: the size VLC followed by
// the size-bit differential code (§7.2.1). diff must satisfy |diff| < 2^11.
func EncodeDCDifferential(w *bits.Writer, diff int32, luma bool) error {
	size := bitLen32(abs32(diff))
	if size > 11 {
		return fmt.Errorf("vlc: DC differential %d too large", diff)
	}
	if err := EncodeDCSize(w, size, luma); err != nil {
		return err
	}
	if size > 0 {
		code := diff
		if diff < 0 {
			code = diff + (1 << uint(size)) - 1
		}
		w.Put(uint32(code), uint(size))
	}
	return nil
}

// DecodeDCDifferential reads a DC differential.
func DecodeDCDifferential(r *bits.Reader, luma bool) (int32, error) {
	size, err := DecodeDCSize(r, luma)
	if err != nil {
		return 0, err
	}
	if size == 0 {
		return 0, nil
	}
	return DCDifferential(int32(r.Read(uint(size))), uint(size)), r.Err()
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func bitLen32(v int32) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}
