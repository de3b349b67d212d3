package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/vlc"
)

// picFate is the plan's verdict on one picture.
type picFate int

const (
	// fateDecode reconstructs the picture from its bitstream slices
	// (concealing whatever the damaged slices leave uncovered).
	fateDecode picFate = iota
	// fateSubstitute never touches the bitstream: the picture's frame is a
	// copy of the nearest preceding reference (mid-grey when none exists).
	fateSubstitute
)

// plan is the resolved decode schedule of a run. Every policy
// decision — which pictures decode, which are substituted from what,
// which GOPs are dropped, and which display slot each output occupies —
// is made here, once per group, before any worker sees it. That is what makes the
// determinism contract hold: the scheduling modes merely execute the
// same plan in different orders, and the plan leaves no decision to
// execution order.
type plan struct {
	// pics is a window of the planned pictures: a group's pictures leave
	// it (retire) once every one of them has been decoded and handed to the
	// display process — nothing still to run can name them, because
	// references never leave a group — and take with them all that a
	// picture pins: the unit's bytes and ranges, bounds, task lists and
	// coverage. What is left is what a failed run's teardown must reclaim.
	// planned counts the pictures that have passed through (the scan
	// goroutine's, read by others once it is done). mu guards pics where
	// groups retire on worker goroutines while the scan plans on.
	mu      sync.Mutex
	pics    []*picState
	planned int
	// pre holds the plan-time error accounting (dropped pictures and
	// GOPs); slice-level damage is discovered during execution.
	pre ErrorStats
	// shed holds the plan-time degradation accounting: pictures
	// sacrificed by load shedding or recovered only because the service
	// degraded the stream's resilience policy. Kept apart from pre so
	// deliberate degradation never masquerades as (or double-counts
	// with) decode errors.
	shed ShedStats
}

// planBuilder grows a plan one group of pictures at a time, from a
// finished scan or as the incremental scanner closes each group — the
// decisions are identical because nothing in the planning of a GOP looks
// ahead.
type planBuilder struct {
	seq     *mpeg2.SequenceHeader
	policy  Resilience
	packing Packing
	seed    int64
	// workers sizes the slice-queue tasks (buildRowGroups): the pool the
	// plan will run on, or the ceiling it may run on.
	workers int
	pl      plan

	// Intra-slice split configuration (setSplit): when on, every planned
	// single-slice row group whose slice spans multiple rows is expanded
	// into segment tasks. scratch recycles the speculative probe buffer
	// across planned pictures (addGOP runs on one goroutine).
	splitOn  bool
	splitOpt Options
	scratch  []mpeg2.MB

	displayBase int

	// Degradation inputs (the multi-stream service sets them between
	// addGOP calls; a single-stream decode leaves them zero). shed selects load
	// shedding for subsequently planned groups; degraded bumps the
	// effective resilience policy to at least ConcealPicture so damage
	// that would fail the stream under its requested policy is
	// substituted instead (and accounted as degradation, not as error).
	shed     ShedLevel
	degraded bool
}

func newPlanBuilder(seq *mpeg2.SequenceHeader, opt Options) *planBuilder {
	return &planBuilder{seq: seq, policy: opt.Resilience, packing: opt.Packing, seed: opt.PackSeed, workers: opt.Workers}
}

// setSplit arms intra-slice task splitting for subsequently planned
// groups (no-op unless opt configures a split source and a slice-grain
// mode — the sequential and GOP executors iterate row groups whole, so
// splitting would only waste plan-time probing there).
func (b *planBuilder) setSplit(opt Options) {
	if splitEligible(opt) {
		b.splitOn = true
		b.splitOpt = opt
	}
}

// buildPlan resolves a whole lenient (or strict) scan into a decode plan
// under the given resilience policy, nothing retired: what the trace
// generator walks. FailFast and ConcealSlice treat picture-level damage as
// a hard error; ConcealPicture substitutes such pictures; DropGOP
// additionally removes groups with no decodable intra anchor.
func buildPlan(data []byte, m *StreamMap, opt Options) (*plan, error) {
	b := newPlanBuilder(&m.Seq, opt)
	b.setSplit(opt)
	for g := range m.GOPs {
		if _, err := b.addGOP(data, g, &m.GOPs[g]); err != nil {
			return nil, err
		}
	}
	return &b.pl, nil
}

// retire drops a finished group's pictures from the plan (see plan.pics).
func (pl *plan) retire(ps []*picState) {
	if len(ps) == 0 {
		return
	}
	pl.mu.Lock()
	if i := slices.Index(pl.pics, ps[0]); i >= 0 {
		pl.pics = slices.Delete(pl.pics, i, i+len(ps))
	}
	pl.mu.Unlock()
}

// addGOP plans one group of pictures. data holds the bytes the group's
// offsets index into (Unit.Data; each planned picture keeps a reference to
// it). It returns the pictures appended to the plan, nil when the policy
// dropped the group.
func (b *planBuilder) addGOP(data []byte, g int, gop *GOPRange) ([]*picState, error) {
	policy := b.policy
	degradedRun := false
	if b.degraded && policy < ConcealPicture {
		// The overload ladder's resilience floor: keep the stream alive
		// through damage its requested policy would have failed on.
		policy = ConcealPicture
		degradedRun = true
	}
	pl := &b.pl
	n := len(gop.Pictures)
	if n == 0 {
		return nil, nil
	}

	// Pass 1: parse every picture header that survived the scan.
	cands := make([]*picState, n)
	for pi := range gop.Pictures {
		pr := &gop.Pictures[pi]
		ps := &picState{rng: pr, data: data, gop: g}
		if pr.Damaged {
			if policy <= ConcealSlice {
				return nil, fmt.Errorf("core: GOP %d: picture %d at byte %d: unreadable picture header", g, pi, pr.Offset)
			}
		} else {
			ps.typeKnown = true
			r := bits.NewReader(data[:pr.End])
			r.SeekBit(int64(pr.Offset+4) * 8)
			hdr, err := mpeg2.ParsePictureHeader(r)
			if err != nil {
				if policy <= ConcealSlice {
					return nil, fmt.Errorf("core: GOP %d: picture %d at byte %d: %w", g, pi, pr.Offset, err)
				}
				// The scan's cheap two-byte prefix still identified the
				// type and temporal reference; keep them so the
				// substitute can slide the reference window correctly.
				ps.hdr.Type = pr.Type
				ps.hdr.TemporalReference = pr.TemporalRef
			} else {
				ps.hdr = hdr
				ps.headerOK = true
			}
		}
		if policy == FailFast && len(pr.Slices) == 0 {
			return nil, fmt.Errorf("core: GOP %d: picture %d at byte %d has no slices", g, pi, pr.Offset)
		}
		cands[pi] = ps
	}

	// DropGOP: without a decodable intra picture there is nothing to
	// anchor the group's predictions on; substituting every picture
	// from a stale reference would only smear garbage forward.
	if policy >= DropGOP {
		anchor := false
		for _, ps := range cands {
			if ps.headerOK && ps.hdr.Type == vlc.CodingI && len(ps.rng.Slices) > 0 {
				anchor = true
				break
			}
		}
		if !anchor {
			pl.pre.DroppedGOPs++
			pl.pre.DroppedPictures += n
			return nil, nil
		}
	}

	// Pass 2: display slots. Trustworthy headers claim their temporal
	// reference; everything else — damaged headers, out-of-range or
	// colliding references — fills the leftover slots in decode order.
	// The result is a permutation of [0,n), so the display process
	// never sees a gap or a duplicate no matter how mangled the
	// temporal references are.
	claimed := make([]int, n)
	slotOf := make([]int, n)
	for i := range claimed {
		claimed[i], slotOf[i] = -1, -1
	}
	for pi, ps := range cands {
		if !ps.headerOK {
			continue
		}
		t := ps.hdr.TemporalReference
		if t >= 0 && t < n && claimed[t] < 0 {
			claimed[t], slotOf[pi] = pi, t
		} else if policy == FailFast {
			return nil, fmt.Errorf("core: GOP %d: picture %d at byte %d: temporal reference %d out of range or duplicate", g, pi, ps.rng.Offset, t)
		}
	}
	next := 0
	for pi := range cands {
		if slotOf[pi] >= 0 {
			continue
		}
		for claimed[next] >= 0 {
			next++
		}
		claimed[next], slotOf[pi] = pi, next
	}

	// Pass 3: resolve references and fates in decode order. The
	// reference window resets at every GOP boundary — the price of
	// keeping GOP tasks independent (the coarse-grained mode decodes
	// them in any order), paid identically by every mode.
	var refOld, refNew *picState
	for pi, ps := range cands {
		// The picture's place in the plan, so a seeded packing is
		// reproducible however the stream is fed.
		key := b.seed + int64(pl.planned+pi)
		ps.displayIdx = b.displayBase + slotOf[pi]
		ps.isRef = ps.typeKnown && ps.hdr.Type != vlc.CodingB
		ps.params = decoder.PictureParams(b.seq, &ps.hdr)

		switch {
		case !ps.headerOK:
			ps.fate = fateSubstitute
		case ps.hdr.Type == vlc.CodingP && refNew == nil,
			ps.hdr.Type == vlc.CodingB && (refOld == nil || refNew == nil):
			if policy <= ConcealSlice {
				return nil, fmt.Errorf("core: GOP %d: picture %d at byte %d: %s picture without reference", g, pi, ps.rng.Offset, ps.hdr.Type)
			}
			ps.fate = fateSubstitute
		default:
			ps.fate = fateDecode
			switch ps.hdr.Type {
			case vlc.CodingP:
				ps.fwd = refNew
			case vlc.CodingB:
				ps.fwd, ps.bwd = refOld, refNew
			}
		}

		// Load shedding: convert decodable pictures the ladder sacrifices
		// into substitutions. B pictures go first (references never read
		// them, so the survivors stay bit-identical); ShedRef adds P
		// pictures, leaving only intra anchors decoding.
		if ps.fate == fateDecode && b.shed != ShedNone && ps.headerOK {
			switch {
			case ps.hdr.Type == vlc.CodingB && b.shed >= ShedB:
				ps.shedBy = ShedB
			case ps.hdr.Type == vlc.CodingP && b.shed >= ShedRef:
				ps.shedBy = ShedRef
			}
			if ps.shedBy != ShedNone {
				ps.fate = fateSubstitute
				ps.fwd, ps.bwd = nil, nil
			}
		}

		if ps.fate == fateSubstitute {
			ps.subFrom = refNew
			ps.nTasks = 1
			switch {
			case ps.shedBy == ShedB:
				pl.shed.BPictures++
			case ps.shedBy == ShedRef:
				pl.shed.RefPictures++
			case degradedRun:
				// Only recoverable because the ladder degraded the policy:
				// under the stream's own policy this damage would have
				// failed the decode, so it is degradation, not an error
				// drop — the two never double-count.
				pl.shed.DegradedPictures++
			default:
				pl.pre.DroppedPictures++
			}
		} else {
			ps.bounds = sliceSpanBounds(ps.rng.Slices, &ps.params)
			ps.groups = buildRowGroups(ps.rng.Slices, ps.bounds, &ps.params, b.workers)
			if len(ps.groups) == 0 {
				// A picture whose every slice was destroyed still owns a
				// display slot: one empty task, then full concealment.
				ps.groups = [][]int{nil}
			}
			ps.nTasks = len(ps.groups)
			// Pack the row-group tasks for the slice queue.
			costs := make([]int64, len(ps.groups))
			for gi, grp := range ps.groups {
				costs[gi] = groupCost(ps.rng.Slices, grp)
			}
			ps.order = packOrder(costs, b.packing, key)
			if b.splitOn {
				buildSplitTasks(ps, data, b.splitOpt, key, &b.scratch)
			}
			// A task owns its rows outright. So does a segment of a split
			// slice once its chain verifies — but only while a damaged slice
			// is fatal: a concealing policy drops such a slice whole, so its
			// join adopts or discards it in one piece (runSegment).
			ps.minRow = minSliceRow(ps.rng.Slices)
			ps.rowwise = ps.tasks == nil || b.policy == FailFast
		}
		ps.remaining = ps.nTasks

		// holds are the frames this picture reads (prediction
		// references or substitution source); each is retained on the
		// holder's behalf and released when the holder completes.
		ps.holds = ps.holdBuf[:0]
		for _, r := range [...]*picState{ps.fwd, ps.bwd, ps.subFrom} {
			if r != nil && !slices.Contains(ps.holds, r) {
				ps.holds = append(ps.holds, r)
				r.deps++
			}
		}
		if ps.isRef {
			refOld, refNew = refNew, ps
		}
	}
	pl.mu.Lock()
	pl.pics = append(pl.pics, cands...)
	pl.mu.Unlock()
	pl.planned += n
	b.displayBase += n
	return cands, nil
}

// buildRowGroups partitions a picture's slices into the slice queue's
// tasks, listing each task's slices in scan order. Slices that start on
// one row could overlap when the stream is corrupted, so they always share
// a task and execute serially inside it; slices that start on different
// rows write disjoint pixels (each is bounded by the next claimed row, see
// sliceSpanBounds), so tasks may run on any workers in any order.
//
// One task per row — the paper's grain — is some thirty tasks a picture at
// SD, which a small pool deals out row by row: every row a worker
// motion-compensates then has both neighbour rows of the reference in
// another core's cache. So row groups adjacent in row order are fused
// until a task spans ceil(MBHeight / (4·workers)) macroblock rows: about
// four tasks per worker per picture, enough for the LPT order to level the
// tail, few enough that a worker stays inside the band pickTask steers it
// to. Measured on two cores at SD, 3· and 5·workers both read 2–3 % below
// 4· (experiments/pr17-band-tasks), so the grain is derived (TaskGrain) and
// nowhere configurable. A row group that already spans
// the target — a tall slice — is a task of its own, which keeps it a
// single-slice group, the only kind buildSplitTasks may split (into
// segments of the same grain); with many workers the target is one row
// and the tasks are the paper's.
//
// The sequential and GOP executors iterate the groups whole and decode the
// same slices into the same pixels whatever the grouping.
func buildRowGroups(slices []SliceRange, bounds []int, params *mpeg2.PictureParams, workers int) [][]int {
	// Slice indices in row order, scan order within a row; a task is a run
	// of them. A clean stream is in row order already.
	byRow := make([]int, len(slices))
	inOrder := true
	for si := range byRow {
		byRow[si] = si
		inOrder = inOrder && (si == 0 || slices[si-1].Row <= slices[si].Row)
	}
	if !inOrder {
		sort.SliceStable(byRow, func(a, b int) bool { return slices[byRow[a]].Row < slices[byRow[b]].Row })
	}

	target := TaskGrain(params.MBHeight, workers)
	groups := make([][]int, 0, min(len(slices), (params.MBHeight+target-1)/target))
	start, rows := 0, 0 // the open task is byRow[start:i], spanning rows macroblock rows
	flush := func(end int) {
		if end > start {
			task := byRow[start:end:end]
			if !inOrder {
				sort.Ints(task)
			}
			groups = append(groups, task)
		}
		start, rows = end, 0
	}
	for i := 0; i < len(byRow); {
		row := slices[byRow[i]].Row
		j := i + 1
		for j < len(byRow) && slices[byRow[j]].Row == row {
			j++
		}
		// The rows this row group owns: its own up to the next claimed one.
		span := 0
		if params.MBWidth > 0 {
			span = max(bounds[byRow[i]]/params.MBWidth-row+1, 0)
		}
		if rows+span > target {
			flush(i)
		}
		if rows += span; rows >= target {
			flush(j)
		}
		i = j
	}
	flush(len(byRow))
	return groups
}

// TaskGrain is the one place that decides the slice-queue grain: how many
// macroblock rows a task spans on a pool of the given size, whether the
// task is a run of fused row groups (buildRowGroups) or a segment of a
// split slice (newSplitJoin).
func TaskGrain(mbHeight, workers int) int {
	if workers <= 0 {
		return 1
	}
	return max((mbHeight+4*workers-1)/(4*workers), 1)
}
