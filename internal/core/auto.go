package core

import (
	"mpeg2par/internal/sched"
)

// AutoDecision records how a ModeAuto run resolved: the concrete mode
// and worker count the policy picked from the first group's geometry, and
// what the online tuner did afterwards.
type AutoDecision struct {
	Mode    Mode
	Workers int
	// Reason is the policy's one-line justification (predicted speedup
	// and the geometry it came from).
	Reason string

	// How many GOP-boundary re-evaluations ran and the active-worker limit
	// in force when the pipeline finished.
	Reevals          int
	FinalWorkerLimit int
}

// maxSliceDetail caps how many pictures of per-slice cost detail feed
// the mode policy. The policy normalizes by predicted speedup, so a
// prefix sample is representative; the cap keeps auto resolution O(1)
// in stream length.
const maxSliceDetail = 64

// autoGeometry flattens scanned groups into the policy's cost view.
func autoGeometry(gops []GOPRange) sched.Geometry {
	var g sched.Geometry
	g.GOPs = len(gops)
	g.GOPBytes = gopCosts(gops)
	for i := range gops {
		g.TotalBytes += g.GOPBytes[i]
		for pi := range gops[i].Pictures {
			pr := &gops[i].Pictures[pi]
			g.Pictures++
			if len(g.SliceBytes) < maxSliceDetail {
				g.SliceBytes = append(g.SliceBytes, sliceCosts(pr.Slices))
			}
		}
	}
	return g
}

// modeOfHint maps the policy's verdict onto a concrete decode mode.
// HintSlice selects the improved slice variant — the paper's
// best-scaling discipline and the one the policy's per-picture makespan
// bound is pessimistic for.
func modeOfHint(h sched.ModeHint) Mode {
	switch h {
	case sched.HintGOP:
		return ModeGOP
	case sched.HintSlice:
		return ModeSliceImproved
	}
	return ModeSequential
}

// projectGeometry replicates a single-group geometry n times: the
// executor's forecast of the stream from its first group, sized
// to what the scan-ahead window can hold in flight. Multi-group
// geometries pass through unchanged.
func projectGeometry(g sched.Geometry, n int) sched.Geometry {
	if n < 2 || g.GOPs != 1 {
		return g
	}
	out := g
	out.GOPs = n
	out.Pictures = g.Pictures * n
	out.TotalBytes = g.TotalBytes * int64(n)
	out.GOPBytes = make([]int64, 0, n)
	for i := 0; i < n; i++ {
		out.GOPBytes = append(out.GOPBytes, g.GOPBytes...)
	}
	// The per-slice detail stays the first group's sample; the policy
	// normalizes by speedup, so a representative prefix suffices.
	return out
}
