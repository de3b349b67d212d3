package server

import (
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
	tight    bool          // slack-tight at feed: assist candidate
}

// worker is one shared-pool goroutine: pick the next runnable task
// under the active dispatch order, execute it through the owning
// stream's session, repeat. Workers exit only when the server is closed
// and every stream has unregistered — a closing server still needs them
// to drain aborted streams' queues (Session.Run returns a latched error
// without decoding, so the drain is fast). The worker owns one decode
// scratch for its lifetime and lends it to each task.
func (s *Server) worker(wi int) {
	defer s.wg.Done()
	var scr core.Scratch
	obs.Do("service", wi, func() {
		for {
			s.mu.Lock()
			tk := s.pickLocked()
			for tk == nil {
				if s.closed && len(s.streams) == 0 {
					s.mu.Unlock()
					return
				}
				s.cond.Wait()
				tk = s.pickLocked()
			}
			tk.st.inFlight++
			s.busy++
			s.grantAssistLocked(tk)
			s.mu.Unlock()

			err := tk.st.sess.Run(tk.t, wi, &scr)
			tk.st.complete(tk.t, err)
		}
	})
}

// grantAssistLocked decides, at the moment a slack-tight task is picked,
// whether it may fan its indexed slices out across otherwise-idle
// workers. Strictly opportunistic: assist is granted only when the rest
// of the queue is empty and workers are idle, so the fan-out goroutines
// spend capacity nothing else wants — it can never slow another stream
// down, only pull this one's tight frame back under its deadline.
func (s *Server) grantAssistLocked(tk *task) {
	if !tk.tight || s.cfg.DisableSlackActions {
		return
	}
	idle := s.cfg.Workers - s.busy
	if idle <= 0 || s.backlog > 0 {
		return
	}
	n := idle + 1
	if n > maxAssistParts {
		n = maxAssistParts
	}
	tk.t.SetAssist(n)
	s.assists.Add(1)
}

// maxAssistParts caps the split fan-out width: beyond a handful of
// segments per slice the verify chain's coordination outweighs the
// latency won.
const maxAssistParts = 8

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
	s.backlog++
	s.pendingCost += tk.cost
	s.mu.Unlock()
	tk.st.touch()
	s.cond.Broadcast()
}
