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
	// pics is a window of the planned pictures, in feed order, and groups
	// the groups it holds, oldest first. A group leaves both (retire) once
	// the display process has delivered its last picture: every picture of
	// it has then completed and let go of what it read, and nothing still
	// to run can name them, because references never leave a group. With
	// it goes all that a picture pins: the unit's bytes and ranges,
	// bounds, task lists and coverage. What is left is what a failed run's
	// teardown must reclaim. planned counts the pictures that have passed
	// through (the scan goroutine's, read by others once it is done). mu
	// guards pics and groups, which delivery retires on worker goroutines
	// while the scan plans on.
	mu      sync.Mutex
	pics    []*picState
	groups  []planGroup
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
	seq    *mpeg2.SequenceHeader
	policy Resilience
	// workers sizes the slice-queue tasks (buildRowGroups) and, in a
	// slice-grain plan (pack), orders them (packOrder): the pool the plan
	// will run on. A GOP-grain plan's tasks go out in task order.
	workers int
	pack    bool
	pl      plan

	// Intra-slice split configuration: when on, every planned single-slice
	// row group whose slice spans multiple rows and is known to the index
	// is expanded into segment tasks (per splitOpt).
	splitOn  bool
	splitOpt Options

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

// newPlanBuilder starts a plan. Splitting is on when opt supplies a split
// index and a slice-grain mode: the sequential and GOP-grain executors,
// the service's sessions among them, plan no segment tasks, so there it
// would only waste plan-time lookups.
func newPlanBuilder(seq *mpeg2.SequenceHeader, opt Options) *planBuilder {
	return &planBuilder{seq: seq, policy: opt.Resilience, workers: opt.Workers, pack: opt.Mode.sliceGrain(),
		splitOn: opt.Mode.sliceGrain() && opt.SplitIndex != nil, splitOpt: opt}
}

// buildPlan resolves a whole lenient (or strict) scan into a decode plan
// under the given resilience policy, nothing retired: what the trace
// generator walks. FailFast and ConcealSlice treat picture-level damage as
// a hard error; ConcealPicture substitutes such pictures; DropGOP
// additionally removes groups with no decodable intra anchor.
func buildPlan(data []byte, m *StreamMap, opt Options) (*plan, error) {
	b := newPlanBuilder(&m.Seq, opt)
	for g := range m.GOPs {
		if _, err := b.addGOP(data, g, &m.GOPs[g]); err != nil {
			return nil, err
		}
	}
	return &b.pl, nil
}

// planGroup is one group in the plan's window: how many of plan.pics are
// its pictures, the display index after its last, and its compressed
// bytes.
type planGroup struct {
	pics, end int
	bytes     int64
}

// retire is told, in display order, of each picture delivered. Once that
// is the oldest group's last, the group leaves the plan (see plan.pics)
// and retire returns its bytes and true.
func (pl *plan) retire(idx int) (int64, bool) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if len(pl.groups) == 0 || idx+1 != pl.groups[0].end {
		return 0, false
	}
	g := pl.groups[0]
	pl.groups = slices.Delete(pl.groups, 0, 1)
	pl.pics = slices.Delete(pl.pics, 0, g.pics)
	return g.bytes, true
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
			if b.pack {
				costs := make([]int64, len(ps.groups))
				for gi, grp := range ps.groups {
					costs[gi] = groupCost(ps.rng.Slices, grp)
				}
				ps.order = packOrder(costs, b.workers)
			}
			if b.splitOn {
				buildSplitTasks(ps, data, b.splitOpt)
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
	pl.groups = append(pl.groups, planGroup{pics: n, end: b.displayBase + n, bytes: int64(gop.End - gop.Offset)})
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
// until a task spans TaskGrain rows (the band grain, or more on a narrow
// picture). A row group that already spans the target — a tall slice — is
// a task of its own, which keeps it a single-slice group, the only kind
// buildSplitTasks may split (into segments of TaskGrain's split grain);
// with many workers and wide pictures the target is one row and the tasks
// are the paper's.
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

	target := TaskGrain(params.MBWidth, params.MBHeight, workers, false)
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

// The fewest macroblocks a task may span: twenty times its fixed cost over
// a macroblock's decode (0.28 µs), so that the fixed cost stays under 5 %
// of the task. A row group pays take, finish and its picture's completion
// (BenchmarkSplitSegmentCost's ns/task-outside, 0.23 µs); a segment of a
// split slice also its entry state, its join and its verify (ns/extra-seg,
// 0.65 µs, quartiles 0.59–1.08). Each constant is the median over sixteen
// runs of its per-run ratio, rounded up; 2 CPUs, asm(avx2), go1.24
// (experiments/pr37-split-grain/README.md, "Segment cost (`segcost.txt`)").
const (
	rowGroupMBs = 17 // 20 · ns/task-outside ÷ ns/MB
	segmentMBs  = 49 // 20 · ns/extra-seg ÷ ns/MB
)

// TaskGrain is the one place that decides the slice-queue grain: how many
// macroblock rows a task spans on a pool of the given size, whether the
// task is a run of fused row groups (buildRowGroups) or, with split set, a
// segment of a split slice (newSplitJoin). One rule serves both: a task
// spans the band grain, ceil(mbHeight / (4·workers)) rows — about four
// tasks per worker per picture, enough for the LPT order to level the
// tail, few enough that a worker stays inside the band pickTask steers it
// to (3· and 5·workers both read 2–3 % below 4· on two cores at SD,
// experiments/pr17-band-tasks) — and never fewer macroblocks than keep its
// fixed cost under 5 % of its decode (rowGroupMBs, segmentMBs). So a
// 704x480 picture keeps the band grain up to eight workers, its split
// slices up to four; a 352x240 split slice is cut into segments of three
// rows from two workers on; a 176x120 picture is planned in tasks of two.
func TaskGrain(mbWidth, mbHeight, workers int, split bool) int {
	rows := 1
	if workers > 0 {
		rows = (mbHeight + 4*workers - 1) / (4 * workers)
	}
	floor := rowGroupMBs
	if split {
		floor = segmentMBs
	}
	return max(rows, (floor+mbWidth-1)/max(mbWidth, 1))
}
