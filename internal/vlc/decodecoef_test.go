package vlc

import (
	"fmt"

	"mpeg2par/internal/bits"
)

// DecodeCoef reads one DCT coefficient. It returns eob=true at end of
// block (run and level are then meaningless). first selects the non-intra
// first-coefficient convention of table zero, under which EOB cannot
// occur. It is the one-symbol form of the block decode in internal/mpeg2,
// which walks the same tables without a call per symbol and is the only
// decoder production code has; the table tests here read symbols back
// through this one.
func DecodeCoef(r *bits.Reader, tableOne, first bool) (run int, level int32, eob bool, err error) {
	t := selectDCT(tableOne, first)
	w, _ := r.Window()
	e := t.dec.Lookup(w)
	n := e.Len()
	if int64(n) > r.Remaining() || n == 0 && r.Remaining() <= 0 {
		return 0, 0, false, fmt.Errorf("vlc: %s: %w", t.name, bits.ErrUnderflow)
	}
	if n == 0 {
		return 0, 0, false, fmt.Errorf("vlc: %s: invalid code %016b at bit %d", t.name, w>>48, r.BitPos())
	}
	r.Skip(n)
	switch e.Run() {
	case RunEOB:
		return 0, 0, true, nil
	case RunEscape:
		run, level = EscapeRunLevel(w)
		if level == 0 || level == -2048 {
			return 0, 0, false, fmt.Errorf("vlc: forbidden escape level %d", level)
		}
		return run, level, false, nil
	default:
		return e.Run(), SignedLevel(e, w), false, nil
	}
}
