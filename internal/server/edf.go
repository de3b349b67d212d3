package server

import (
	"fmt"
	"runtime"
	"time"

	"mpeg2par/internal/core"
)

// Deadline-aware dispatch. PR 8's pool ordered tasks by weighted fair
// share alone — correct for throughput fairness, blind to the fact
// that some streams carry per-frame latency budgets the cost model can
// already price at feed time. This file adds the two halves of the
// deadline story:
//
//   - EDF dispatch: each queued task carries an absolute deadline (feed
//     time + the stream's Deadline; best-effort tasks get feed time +
//     BestEffortLag as a virtual one) and the pool runs the earliest
//     effective deadline first within priority bands. When no admitted
//     stream has a deadline the pool falls back to the exact weighted
//     fair order, byte for byte.
//
//   - Slack actions at feed time: predicted slack = deadline − queue
//     delay − predicted cost. A frame with negative slack is already
//     doomed, so its unit sheds B (or, if that can't close the gap,
//     reference) pictures at plan time — one stream's frame, before the
//     global ladder would have escalated everyone.
//
// A frame that one worker would barely make needs no verdict of its own:
// when its group starts on a pool with a worker idle and nothing queued,
// the idle worker helps decode it (the offer rule, pool.go).
//
// Both halves stand down while the cost model is uncalibrated
// (sched.CostModel.Calibrated): an unknown cost must read as "be
// conservative", never as "free".

// edfActiveLocked reports whether the pool should order by deadline
// right now: while any admitted stream has one, tracked as a count on
// register/unregister so the per-pick cost stays O(1).
func (s *Server) edfActiveLocked() bool { return s.nDeadline > 0 }

// effDeadline is a queued task's EDF key: its real absolute deadline,
// or the virtual one a best-effort task ages under (enqueue time +
// BestEffortLag — so best-effort work is late-but-never-last and keeps
// flowing even while deadline streams dominate).
func (tk *task) effDeadline(lag time.Duration) time.Time {
	if !tk.deadline.IsZero() {
		return tk.deadline
	}
	return tk.enq.Add(lag)
}

// pickEDFLocked returns the next task in deadline order, or nil. Three
// tiers, highest first:
//
//  1. mustServe: a stream just resumed from a rung-3 pause is owed one
//     completed task before anything else — the PR 8 anti-livelock
//     guarantee, extended to this dispatch order (EDF would otherwise
//     keep selecting a deadline-bearing stream forever and re-starve
//     the resumed one; the regression test pins it at rung 3).
//  2. Starvation guard: the head task waiting longest, once past
//     StarveWindow, runs regardless of band or deadline.
//  3. EDF: highest priority band first, earliest effective deadline
//     within the band, stream id as the deterministic tiebreak.
//
// Paused streams are skipped unless failed (teardown drain), exactly
// like the fair path.
func (s *Server) pickEDFLocked(now time.Time) *task {
	var (
		must     *stream
		mustKey  float64
		starve   *stream
		edf      *stream
		edfDl    time.Time
		starveAt time.Time
	)
	for _, st := range s.streams {
		if len(st.pending) == 0 {
			continue
		}
		if st.paused && st.sess.Err() == nil {
			continue
		}
		if st.mustServe {
			key := st.served / st.weight
			if must == nil || key < mustKey || (key == mustKey && st.id < must.id) {
				must, mustKey = st, key
			}
		}
		head := st.pending[0]
		if now.Sub(head.enq) > s.cfg.StarveWindow {
			if starve == nil || head.enq.Before(starveAt) || (head.enq.Equal(starveAt) && st.id < starve.id) {
				starve, starveAt = st, head.enq
			}
		}
		dl := head.effDeadline(s.cfg.BestEffortLag)
		if edf == nil {
			edf, edfDl = st, dl
			continue
		}
		switch {
		case st.prio != edf.prio:
			if st.prio > edf.prio {
				edf, edfDl = st, dl
			}
		case dl.Before(edfDl), dl.Equal(edfDl) && st.id < edf.id:
			edf, edfDl = st, dl
		}
	}
	best := edf
	if starve != nil {
		best = starve
	}
	if must != nil {
		best = must
	}
	if best == nil {
		return nil
	}
	return s.takeLocked(best)
}

// takeLocked pops a stream's head task and settles the queue gauges.
func (s *Server) takeLocked(st *stream) *task {
	tk := st.pending[0]
	st.pending = st.pending[1:]
	st.inFlight++
	s.pool.Queue(-1)
	s.pendingCost -= tk.cost
	if s.pendingCost < 0 {
		s.pendingCost = 0
	}
	return tk
}

// queueDelayLocked estimates how long a newly fed task waits before a
// worker starts it: the queued predicted cost spread across the pool.
// An approximation — EDF may run the new task earlier or later than
// FIFO would — but it is the same one the paper's admission math uses,
// and the slack histograms report how well it tracks reality.
//
// The divisor is the pool's *effective* parallelism: workers beyond
// GOMAXPROCS time-slice one another instead of draining the queue
// faster, so dividing by the configured count would understate the wait
// by exactly that oversubscription factor — and a slack predictor that
// understates wait sheds too little, too late.
func (s *Server) queueDelayLocked() time.Duration {
	w := s.cfg.Workers
	if p := runtime.GOMAXPROCS(0); p < w {
		w = p
	}
	return time.Duration(int64(s.pendingCost) / int64(w))
}

// classifySlack turns one unit's predicted slack into a plan-time shed
// floor. slack = deadline − wait − cost; bSave is the predicted decode
// time shedding B pictures would buy back. A frame with slack ≥ 0 keeps
// every picture; a doomed one sheds B pictures if that closes the gap,
// otherwise references too (even when anchors alone still miss, it is the
// closest the plan can get and the survivors stay bit-exact).
func classifySlack(deadline, wait, cost, bSave time.Duration) core.ShedLevel {
	switch {
	case deadline-wait-cost >= 0:
		return core.ShedNone
	case deadline-wait-(cost-bSave) >= 0:
		return core.ShedB
	}
	return core.ShedRef
}

// slackPlan is one unit's feed-time slack verdict.
type slackPlan struct {
	floor core.ShedLevel // per-unit plan-time shed floor (the KindSlack action: 0 none, 1 shed B, 2 shed refs)
	cost  time.Duration  // predicted decode cost (0 = model uncalibrated)
	pred  time.Duration  // predicted slack (valid when known)
	known bool           // deadline set and model calibrated
}

// planSlack prices one unit about to be fed: predicted cost from the
// calibrated model, queue delay from the pool's pending-cost gauge, and
// the action classifySlack picks. Uncalibrated or best-effort: everything
// stands down — unknown cost is not free cost.
func (s *Server) planSlack(st *stream, u *core.Unit) slackPlan {
	var sp slackPlan
	sp.cost = s.cost.Predict(int64(u.Range.End - u.Range.Offset))
	if st.deadline <= 0 || !s.cost.Calibrated() {
		return sp
	}
	s.mu.Lock()
	wait := s.queueDelayLocked()
	s.mu.Unlock()
	sp.pred = st.deadline - wait - sp.cost
	sp.known = true
	sp.floor = classifySlack(st.deadline, wait, sp.cost, s.cost.Predict(u.ShedSavings(core.ShedB)))
	return sp
}

// slackBucketsMS are the SlackHist bucket upper bounds in milliseconds
// (exclusive); the last bucket is open-ended. Negative slack — a missed
// prediction or delivery — lands in the first buckets.
var slackBucketsMS = [...]int{-100, -50, -20, -10, 0, 10, 20, 50, 100, 250}

// SlackHist is a fixed-bucket histogram of slack durations (predicted
// at feed, or actual at delivery: deadline − latency). Bucket i counts
// samples < slackBucketsMS[i] (and ≥ the previous bound); the final
// bucket counts everything ≥ 250ms.
type SlackHist struct {
	Counts [len(slackBucketsMS) + 1]int64
}

// Add files one slack sample.
func (h *SlackHist) Add(d time.Duration) {
	ms := d.Milliseconds()
	for i, ub := range slackBucketsMS {
		if ms < int64(ub) {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(slackBucketsMS)]++
}

// Total returns the sample count.
func (h *SlackHist) Total() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Negative returns how many samples had negative slack (a predicted or
// actual deadline miss).
func (h *SlackHist) Negative() int64 {
	var n int64
	for i, ub := range slackBucketsMS {
		if ub <= 0 {
			n += h.Counts[i]
		}
	}
	return n
}

// Merge accumulates o into h.
func (h *SlackHist) Merge(o *SlackHist) {
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
}

// String renders the non-empty buckets compactly, e.g.
// "[-10,0)ms:3 [0,10)ms:41 >=250ms:2".
func (h *SlackHist) String() string {
	out := ""
	lo := "-inf"
	for i := range h.Counts {
		var label string
		if i < len(slackBucketsMS) {
			label = fmt.Sprintf("[%s,%d)ms", lo, slackBucketsMS[i])
			lo = fmt.Sprintf("%d", slackBucketsMS[i])
		} else {
			label = fmt.Sprintf(">=%dms", slackBucketsMS[len(slackBucketsMS)-1])
		}
		if h.Counts[i] == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s:%d", label, h.Counts[i])
	}
	if out == "" {
		return "(empty)"
	}
	return out
}
