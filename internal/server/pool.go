package server

import (
	"slices"
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/obs"
)

// task is one queued unit of pool work: one stream's planned group of
// pictures, stamped with the scheduling facts dispatch needs.
type task struct {
	st *stream
	t  *core.SessionTask

	enq      time.Time     // enqueue time (aging, virtual deadlines)
	deadline time.Time     // absolute frame deadline; zero for best-effort
	cost     time.Duration // predicted decode cost (0 = model uncalibrated)
	helped   bool          // an idle worker has decoded part of it (Metrics.Assists)
}

// worker is one shared-pool goroutine: pick the next runnable task under
// the active dispatch order and execute it through the owning stream's
// session; with nothing to pick, help a running task that took helpers
// (the offer rule below), or sleep. Workers exit only when the server is
// closed and every stream has unregistered — a closing server still needs
// them to drain aborted streams' queues (Session.Run returns a latched
// error without decoding, so the drain is fast). The worker owns one
// decode scratch for its lifetime and lends it to each task it runs or
// helps.
//
// The offer rule: a task takes helpers only if a worker is idle and
// nothing is queued when it starts; a helper leaves after its current unit
// (a row group) once a task is queued, or once the helped task has no unit
// left to hand out. Neither side waits on s.mu meanwhile: the helper reads
// the atomic backlog, the task hands out its pictures' units through its
// own slice queue, where a helper with nothing to take waits, and enqueue
// wakes that wait (SessionTask.Wake) the moment a task is queued. The
// helper never displays a picture: the task's own worker does. A loaded
// pool never pays for help; a half-loaded one stops leaving a worker
// asleep while a group decodes.
func (s *Server) worker(wi int) {
	defer s.wg.Done()
	var scr core.Scratch
	queued := func() bool { return s.backlog.Load() > 0 }
	obs.Do("service", wi, func() {
		for {
			s.mu.Lock()
			tk := s.pickLocked()
			for left := false; tk == nil; tk = s.pickLocked() {
				switch {
				case len(s.open) > 0 && !left:
					// A helper that left for queued work it cannot run (a
					// paused stream's) sleeps instead of rejoining at once.
					h := s.open[0]
					s.mu.Unlock()
					units, ended := h.t.Help(wi, &scr, queued)
					s.mu.Lock()
					if units > 0 && !h.helped {
						h.helped = true
						s.assists.Add(1)
					}
					if ended {
						s.closeLocked(h)
					}
					left = !ended
				case s.closed && len(s.streams) == 0:
					s.mu.Unlock()
					return
				default:
					s.cond.Wait()
					left = false
				}
			}
			tk.st.inFlight++
			s.busy++
			if s.busy < s.cfg.Workers && s.backlog.Load() == 0 {
				s.open = append(s.open, tk)
				s.cond.Broadcast()
			}
			s.mu.Unlock()

			err := tk.st.sess.Run(tk.t, wi, &scr)
			tk.st.complete(tk, err)
		}
	})
}

// closeLocked withdraws a task that has ended from the helpers' offer.
func (s *Server) closeLocked(tk *task) {
	if i := slices.Index(s.open, tk); i >= 0 {
		s.open = slices.Delete(s.open, i, i+1)
	}
}

// pickLocked returns the next task under the active dispatch order:
// earliest-effective-deadline-first while any admitted stream carries a
// deadline (see pickEDFLocked), the legacy weighted fair order
// otherwise.
func (s *Server) pickLocked() *task {
	if s.edfActiveLocked() {
		return s.pickEDFLocked(time.Now())
	}
	return s.pickFairLocked()
}

// pickFairLocked implements the pool's weighted fair dispatch: among
// streams with queued tasks, run the one with the least service per
// unit weight (weight = priority+1), ties to the lowest id. The
// minimum always eventually runs, so no admitted stream starves, and
// within a priority class service rates equalize — the fairness bound
// the load tests assert. Paused streams are skipped unless they have
// already failed (their queues must still drain for teardown).
func (s *Server) pickFairLocked() *task {
	var best *stream
	var bestKey float64
	for _, st := range s.streams {
		if len(st.pending) == 0 {
			continue
		}
		if st.paused && st.sess.Err() == nil {
			continue
		}
		key := st.served / st.weight
		if best == nil || key < bestKey || (key == bestKey && st.id < best.id) {
			best, bestKey = st, key
		}
	}
	if best == nil {
		return nil
	}
	return s.takeLocked(best)
}

// enqueue queues one stamped task for the pool.
func (s *Server) enqueue(tk *task) {
	s.mu.Lock()
	tk.st.pending = append(tk.st.pending, tk)
	s.backlog.Add(1)
	s.pendingCost += tk.cost
	for _, h := range s.open {
		h.t.Wake()
	}
	s.mu.Unlock()
	tk.st.touch()
	s.cond.Broadcast()
}
