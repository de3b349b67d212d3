package bench

import (
	"fmt"
	"io"

	"mpeg2par/internal/cachesim"
	"mpeg2par/internal/core"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/memtrace"
)

// LocalityRow is one variant sample of the layout/affinity locality
// study (the cachesim A/B behind the adopted frame layout and task
// steering — see DESIGN.md "Kernel dispatch & memory layout").
type LocalityRow struct {
	Study    string  `json:"study"`   // "layout" or "affinity"
	Variant  string  `json:"variant"` // dense/padded, round-robin/band
	Adopted  bool    `json:"adopted"`
	Res      string  `json:"res"`
	CacheKB  int     `json:"cache_kb"`
	Assoc    int     `json:"assoc"` // 0 = fully associative
	MissRate float64 `json:"read_miss_rate"`
	Conflict int64   `json:"conflict_misses"`
	Sharing  int64   `json:"sharing_misses"`
	Cold     int64   `json:"cold_misses"`
}

// localityTrace records a slice-mode reconstruction trace under an
// explicit frame layout and task→processor assignment. Traces are not
// cached across calls: the Runner's trace cache is keyed without layout
// or assignment, and the study's whole point is varying them.
func (r *Runner) localityTrace(res Resolution, procs int, padded bool, aff core.Affinity) ([]memtrace.Event, error) {
	s, err := r.Stream(res, 13)
	if err != nil {
		return nil, err
	}
	defer func(v bool) { frame.PadStrides = v }(frame.PadStrides)
	frame.PadStrides = padded
	rec := memtrace.NewRecorder()
	if err := core.TraceDecodeAssign(s.Data, core.ModeSliceSimple, procs, aff, rec); err != nil {
		return nil, err
	}
	return rec.Events(), nil
}

func simulate(evs []memtrace.Event, size, assoc, procs int) (cachesim.Stats, error) {
	sim, err := cachesim.New(cachesim.Config{Size: size, LineSize: 64, Assoc: assoc, Procs: procs})
	if err != nil {
		return cachesim.Stats{}, err
	}
	if err := sim.Run(evs); err != nil {
		return cachesim.Stats{}, err
	}
	return sim.Stats(), nil
}

// LocalityStudy runs the two cachesim A/B comparisons behind the
// adopted memory-layout decisions:
//
//   - Layout: a 512-pixel-wide stream (rows alias power-of-two cache
//     sets) decoded under the dense and the row-padded frame layout,
//     simulated on low-associativity caches where set conflicts show.
//     The padded layout is the adopted variant for 512-multiple widths;
//     dense stays adopted elsewhere (the study's non-aliasing control
//     resolution shows padding buys nothing there).
//   - Affinity: the locality-study resolution decoded with tasks
//     assigned round-robin (the paper's dynamic assignment) versus
//     steered by band (the picture cut into one horizontal band per
//     processor), on per-processor caches large enough to hold a band
//     between pictures. Band steering is the adopted variant: the
//     processor that wrote a reference row is the one that re-reads it
//     and its neighbours for motion compensation, converting
//     sharing/cold misses into hits.
func (r *Runner) LocalityStudy(w io.Writer) ([]LocalityRow, error) {
	var rows []LocalityRow
	var out [][]string
	add := func(row LocalityRow) {
		rows = append(rows, row)
		mark := ""
		if row.Adopted {
			mark = " *"
		}
		aName := fmt.Sprintf("%d-way", row.Assoc)
		if row.Assoc == 0 {
			aName = "full"
		}
		out = append(out, []string{row.Study, row.Variant + mark, row.Res,
			fmt.Sprintf("%dK", row.CacheKB), aName,
			fmt.Sprintf("%.5f", row.MissRate),
			fmt.Sprintf("%d", row.Conflict), fmt.Sprintf("%d", row.Sharing),
			fmt.Sprintf("%d", row.Cold)})
	}

	// Part 1: frame layout, on the width class the padding rule targets.
	aliasRes := Resolution{512, 192}
	const layoutProcs = 4
	for _, variant := range []struct {
		name    string
		padded  bool
		adopted bool
	}{{"dense", false, false}, {"padded", true, true}} {
		evs, err := r.localityTrace(aliasRes, layoutProcs, variant.padded, core.AffinityNone)
		if err != nil {
			return nil, err
		}
		for _, g := range []struct{ size, assoc int }{{32 << 10, 1}, {32 << 10, 2}} {
			st, err := simulate(evs, g.size, g.assoc, layoutProcs)
			if err != nil {
				return nil, err
			}
			add(LocalityRow{Study: "layout", Variant: variant.name, Adopted: variant.adopted,
				Res: aliasRes.Name(), CacheKB: g.size >> 10, Assoc: g.assoc,
				MissRate: st.ReadMissRate(), Conflict: st.Conflict, Sharing: st.Sharing, Cold: st.Cold})
		}
	}
	// Control: at the paper resolutions (non-512-multiple strides) the
	// rule leaves rows dense; show padding would not have helped there.
	ctrlRes := r.localityRes()
	for _, variant := range []struct {
		name    string
		padded  bool
		adopted bool
	}{{"dense", false, true}, {"padded", true, false}} {
		// Forcing the pad rule on a non-multiple width is a no-op, so
		// simulate the dense trace both times and let the table show the
		// identical rates (stride is unchanged by PadStrides there).
		evs, err := r.localityTrace(ctrlRes, layoutProcs, variant.padded, core.AffinityNone)
		if err != nil {
			return nil, err
		}
		st, err := simulate(evs, 32<<10, 1, layoutProcs)
		if err != nil {
			return nil, err
		}
		add(LocalityRow{Study: "layout-ctrl", Variant: variant.name, Adopted: variant.adopted,
			Res: ctrlRes.Name(), CacheKB: 32, Assoc: 1,
			MissRate: st.ReadMissRate(), Conflict: st.Conflict, Sharing: st.Sharing, Cold: st.Cold})
	}

	// Part 2: slice→worker assignment at the locality resolution.
	const affProcs = 8
	for _, variant := range []struct {
		name    string
		aff     core.Affinity
		adopted bool
	}{{"round-robin", core.AffinityNone, false}, {"band", core.AffinityRow, true}} {
		evs, err := r.localityTrace(ctrlRes, affProcs, true, variant.aff)
		if err != nil {
			return nil, err
		}
		for _, size := range []int{256 << 10, 1 << 20} {
			st, err := simulate(evs, size, 2, affProcs)
			if err != nil {
				return nil, err
			}
			add(LocalityRow{Study: "affinity", Variant: variant.name, Adopted: variant.adopted,
				Res: ctrlRes.Name(), CacheKB: size >> 10, Assoc: 2,
				MissRate: st.ReadMissRate(), Conflict: st.Conflict, Sharing: st.Sharing, Cold: st.Cold})
		}
	}

	table(w, "Locality study: frame layout and task steering (* = adopted variant)",
		[]string{"Study", "Variant", "Resolution", "Cache", "Assoc", "Read miss rate", "Conflict", "Sharing", "Cold"}, out)
	return rows, nil
}
