package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mpeg2par/internal/mpeg2"
)

// TestBuildRowGroupsProperties pins what every executor relies on in the
// slice-queue grain, over picture heights from tiny to 1088 lines, pools of
// 1 to 16 workers, and slice lists a clean or a damaged stream can present:
// every slice is in exactly one task; slices of one row share a task; a
// task lists its slices in scan order; the row spans of the tasks
// (taskRows, over all of a task's slices) tile the picture; a row group
// that spans the target on its own is a task of its own and no fused task
// exceeds the target; a clean picture gets ceil(rows / target) tasks.
func TestBuildRowGroupsProperties(t *testing.T) {
	type list struct {
		name string
		rows func(mbh int) []int // the row of each slice, in scan order
	}
	perRow := func(mbh int) []int {
		rows := make([]int, mbh)
		for r := range rows {
			rows[r] = r
		}
		return rows
	}
	lists := []list{
		{"clean", perRow},
		{"tall-slice", func(mbh int) []int {
			// Rows 0..2 singly, one slice from row 3 to the middle of the
			// picture, the rest singly.
			var rows []int
			for r := 0; r < mbh; r++ {
				if r <= 3 || r > mbh/2 {
					rows = append(rows, r)
				}
			}
			return rows
		}},
		{"duplicate-row", func(mbh int) []int {
			var rows []int
			for r := 0; r < mbh; r++ {
				rows = append(rows, r)
				if r%3 == 1 {
					rows = append(rows, r)
				}
			}
			return rows
		}},
		{"out-of-order-row", func(mbh int) []int {
			rows := perRow(mbh)
			for r := 0; r+5 < mbh; r += 4 {
				rows[r], rows[r+5] = rows[r+5], rows[r]
			}
			return append(rows, 1) // and a late repeat of row 1
		}},
		{"one-slice", func(int) []int { return []int{0} }},
	}
	for _, mbh := range []int{8, 15, 30, 68} {
		for workers := 1; workers <= 16; workers++ {
			target := TaskGrain(3, mbh, workers, false)
			for _, l := range lists {
				id := fmt.Sprintf("%s mbh %d workers %d", l.name, mbh, workers)
				pr := &PictureRange{}
				for _, r := range l.rows(mbh) {
					pr.Slices = append(pr.Slices, SliceRange{Row: r})
				}
				p := &picState{rng: pr, params: mpeg2.PictureParams{MBWidth: 3, MBHeight: mbh}}
				p.bounds = sliceSpanBounds(pr.Slices, &p.params)
				p.minRow = minSliceRow(pr.Slices)
				p.groups = buildRowGroups(pr.Slices, p.bounds, &p.params, workers)

				taskOf := make([]int, len(pr.Slices))
				for i := range taskOf {
					taskOf[i] = -1
				}
				for gi, g := range p.groups {
					if len(g) == 0 || !sort.IntsAreSorted(g) {
						t.Fatalf("%s: task %d = %v, want a non-empty list in scan order", id, gi, g)
					}
					for _, si := range g {
						if taskOf[si] >= 0 {
							t.Fatalf("%s: slice %d in tasks %d and %d", id, si, taskOf[si], gi)
						}
						taskOf[si] = gi
					}
				}
				rowTask := map[int]int{}
				for si, gi := range taskOf {
					if gi < 0 {
						t.Fatalf("%s: slice %d in no task", id, si)
					}
					r := pr.Slices[si].Row
					if prev, ok := rowTask[r]; ok && prev != gi {
						t.Fatalf("%s: row %d split over tasks %d and %d", id, r, prev, gi)
					}
					rowTask[r] = gi
				}

				// Spans tile the picture, in task order.
				next := 0
				for gi, g := range p.groups {
					r0, r1, entry, ok := taskRows(p, gi)
					if !ok || r0 != next || r1 < r0 || entry > r1 {
						t.Fatalf("%s: task %d %v spans rows %d..%d (entry %d, ok %v), want a span from row %d",
							id, gi, g, r0, r1, entry, ok, next)
					}
					next = r1 + 1
					claimed := map[int]bool{}
					for _, si := range g {
						claimed[pr.Slices[si].Row] = true
					}
					if rows := r1 - r0 + 1; len(claimed) > 1 && rows > target {
						t.Fatalf("%s: task %d fuses %d row groups into %d rows, over the target of %d",
							id, gi, len(claimed), rows, target)
					}
				}
				if next != mbh {
					t.Fatalf("%s: task spans end at row %d of %d", id, next, mbh)
				}

				switch l.name {
				case "clean":
					if want := (mbh + target - 1) / target; len(p.groups) != want {
						t.Fatalf("%s: %d tasks, want %d of %d rows", id, len(p.groups), want, target)
					}
				case "tall-slice":
					// The slice on row 3 spans rows 3..mbh/2.
					if span := mbh/2 - 3 + 1; span >= target && len(p.groups[taskOf[3]]) != 1 {
						t.Fatalf("%s: the %d-row slice shares task %v", id, span, p.groups[taskOf[3]])
					}
				case "one-slice":
					if !reflect.DeepEqual(p.groups, [][]int{{0}}) {
						t.Fatalf("%s: groups %v, want the single-slice group", id, p.groups)
					}
				}
			}
		}
	}
}

// TestBuildRowGroupsGrain pins the band grain: SD on two workers is eight
// tasks of four rows, SIF on two is two rows a task, sixteen workers at SD
// get the paper's one row per task — and a 176x120 picture's tasks span
// two rows whatever the pool, TaskGrain's floor for a row group.
func TestBuildRowGroupsGrain(t *testing.T) {
	for _, c := range []struct{ mbw, mbh, workers, rows, tasks int }{
		{44, 30, 2, 4, 8}, {22, 15, 2, 2, 8}, {44, 30, 16, 1, 30}, {44, 30, 1, 8, 4}, {120, 68, 4, 5, 14},
		{11, 8, 2, 2, 4}, {11, 8, 16, 2, 4},
	} {
		p := groupedTestPic(c.mbw, c.mbh, c.workers, func(int) int { return 1 })
		if len(p.groups) != c.tasks || len(p.groups[0]) != c.rows {
			t.Errorf("%d rows on %d workers: %d tasks, the first of %d rows; want %d of %d",
				c.mbh, c.workers, len(p.groups), len(p.groups[0]), c.tasks, c.rows)
		}
	}
}
