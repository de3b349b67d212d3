package core

import "fmt"

// Affinity selects how slice-queue tasks are matched to workers. Like
// Packing, every affinity produces bit-identical output — tasks of one
// picture write disjoint pixels — so the choice is purely a locality
// decision.
//
// AffinityRow steers by the rows a task covers (see DESIGN.md): the
// picture is cut into `workers` static horizontal bands and a worker
// prefers tasks whose first macroblock row r lies in its own,
// r·workers / MBHeight == worker index. Because motion compensation of
// row r reads rows r−w…r+w of the reference picture, the worker that
// wrote a band of the reference is the one that later reads it back —
// except at the band's two edges — turning the cross-picture reference
// traffic into per-processor cache reuse. (The rule used to be
// r mod workers, which keeps the row itself at home but puts both its
// neighbours, which prediction reads too, on other workers.) The
// preference is work-conserving: a worker with no matching task takes
// the head task instead of idling, so the schedule can never be worse
// than the unconstrained queue by more than the preference scan.
type Affinity int

const (
	// AffinityRow steers tasks to workers by the horizontal band their
	// first row lies in (the default).
	AffinityRow Affinity = iota
	// AffinityNone hands tasks out in pure queue order, matching the
	// paper's no-locality dynamic assignment.
	AffinityNone
)

// bandOf returns which of `bands` equal horizontal bands of a picture mbh
// macroblock rows high row lies in — the AffinityRow rule, for the queue
// and for the trace labelling alike.
func bandOf(row, bands, mbh int) int {
	return min(row*bands/mbh, bands-1)
}

func (a Affinity) String() string {
	switch a {
	case AffinityRow:
		return "row"
	case AffinityNone:
		return "none"
	}
	return fmt.Sprintf("Affinity(%d)", int(a))
}
