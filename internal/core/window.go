package core

// Row-window readiness: the data dependency the improved slice mode
// synchronises on. A task of picture p may run once every macroblock row
// it can read in p's reference frames has been published; which rows those
// are follows from the picture's f_code alone.

// refRowWindow returns how many macroblock rows above and below its own
// row a macroblock can read in a reference frame, given the vertical
// f_code of the prediction direction and whether the picture may use field
// prediction (frame_pred_frame_dct = 0). It returns -1 — the whole frame —
// for an f_code the slice layer rejects.
//
// decodeVector wraps every vertical component into [-16f, 16f-1] half-pels,
// f = 2^(f_code-1). A frame vector displaces the 16-line block by at most
// 8f lines up and, with the half-pel line, 8f lines down: ⌈f/2⌉ rows either
// way. A field vector is in field lines, each two frame lines, so the same
// range reaches f rows. Chroma halves both the vector and the row height,
// and motion.PredictBlock's edge clamp only ever moves a block back towards
// its own row, so neither widens the window.
func refRowWindow(fcode int, field bool) int {
	if fcode < 1 || fcode > 9 {
		return -1
	}
	f := 1 << uint(fcode-1)
	if field {
		return f
	}
	return (f + 1) / 2
}

// picRowWindow returns the widest window p's tasks read their references
// through (0 when p predicts from nothing, or from whole frames).
func picRowWindow(p *picState) int {
	w := 0
	for dir, ref := range [...]*picState{p.fwd, p.bwd} {
		if ref == nil {
			continue
		}
		d := refRowWindow(p.params.FCode[dir][1], !p.params.FramePredFrameDCT)
		if d < 0 {
			return 0
		}
		w = max(w, d)
	}
	return w
}

// taskRows is the one resolver from a queue task to the macroblock rows it
// stands for; readiness (sliceQueue.ready) and steering (pickTask) both go
// through it. [r0, r1] are the rows task ti of p may write: its lowest
// slice row to the highest row any of its slices is bounded by
// (sliceSpanBounds) — all of a fused task's slices, not the first one's,
// since the task may only start once the reference rows around its last
// row are published too. Widened by refRowWindow they are the reference
// rows it reads: prediction reads around every row it decodes, and
// concealment of whatever it fails to cover reads the co-located rows. The
// task that claims the picture's lowest row also answers for the
// unclaimed rows above it, so the spans of a picture's tasks tile the
// picture and the completion-time concealment never reads a row no task
// waited for. A segment of a split slice has the rows from its entry point
// to the next split point: what a verify miss re-decodes on the last
// segment to finish are rows of that slice's other segments, each of which
// has waited for its own window by then.
//
// entry is the row the task starts decoding on, the key pickTask steers
// by. ok is false for tasks without a span —
// substitutes, empty groups, a slice on a row outside the picture — which
// wait for their whole reference frames and are steered nowhere.
func taskRows(p *picState, ti int) (r0, r1, entry int, ok bool) {
	if p.fate == fateSubstitute {
		return 0, 0, 0, false
	}
	base, j, seg := p.taskAt(ti)
	task := p.groups[base] // the task's slices
	if j != nil {
		task = []int{j.si}
	}
	mbw, mbh := p.params.MBWidth, p.params.MBHeight
	if len(task) == 0 || mbw <= 0 {
		return 0, 0, 0, false
	}
	r0, r1 = mbh, -1
	for _, si := range task {
		lo, hi := p.rng.Slices[si].Row, p.sliceBound(si)/mbw
		if lo < 0 || lo > hi || hi >= mbh {
			return 0, 0, 0, false
		}
		r0, r1 = min(r0, lo), max(r1, hi)
	}
	if j != nil {
		// Points lie inside the slice's rows in address order: r0 <= r1 holds.
		if seg > 0 {
			r0 = min((j.pts[seg-1].State.PrevAddr+1)/mbw, r1)
		}
		if seg < len(j.pts) {
			r1 = min(j.pts[seg].State.PrevAddr/mbw, r1)
		}
	}
	entry = r0
	if r0 == p.minRow {
		r0 = 0
	}
	return r0, r1, entry, true
}

// minSliceRow returns the lowest macroblock row any slice claims (-1 when
// there is no slice).
func minSliceRow(slices []SliceRange) int {
	minRow := -1
	for i := range slices {
		if r := slices[i].Row; minRow < 0 || r < minRow {
			minRow = r
		}
	}
	return minRow
}

// coverage records which macroblocks of one picture have been
// reconstructed: one bit per macroblock and the running count.
type coverage struct {
	bits  []uint64
	total int
	n     int
}

// reset clears c for a picture of total macroblocks, keeping its storage.
func (c *coverage) reset(total int) {
	words := (total + 63) / 64
	if cap(c.bits) < words {
		c.bits = make([]uint64, words)
	} else {
		c.bits = c.bits[:words]
		clear(c.bits)
	}
	c.total, c.n = total, 0
}

// add marks macroblock a and reports whether it was new; addresses
// outside the picture are ignored.
func (c *coverage) add(a int) bool {
	if a < 0 || a >= c.total || c.has(a) {
		return false
	}
	c.bits[a>>6] |= 1 << uint(a&63)
	c.n++
	return true
}

func (c *coverage) has(a int) bool { return c.bits[a>>6]>>uint(a&63)&1 != 0 }

func (c *coverage) full() bool { return c.n == c.total }
