package server

import (
	"time"

	"mpeg2par/internal/core"
)

// task is one queued unit of pool work: one stream's planned group of
// pictures, stamped with the scheduling facts dispatch needs.
type task struct {
	st *stream
	t  *core.SessionTask

	enq      time.Time     // enqueue time (aging, virtual deadlines)
	deadline time.Time     // absolute frame deadline; zero for best-effort
	cost     time.Duration // predicted decode cost (0 = model uncalibrated)
}

// Task returns the session's task the job decodes.
func (tk *task) Task() *core.SessionTask { return tk.t }

// order is the server as the shared pool's core.Order: its dispatch order
// and its epilogue, under s.mu. The pool's loop (core.Pool) is the one every
// decode runs; the service adds what it decides.
type order Server

// Next returns the next task under the active dispatch order:
// earliest-effective-deadline-first while any admitted stream carries a
// deadline (see pickEDFLocked), the legacy weighted fair order otherwise.
func (o *order) Next() core.Job {
	s := (*Server)(o)
	var tk *task
	if s.edfActiveLocked() {
		tk = s.pickEDFLocked(time.Now())
	} else {
		tk = s.pickFairLocked()
	}
	if tk == nil {
		return nil
	}
	return tk
}

// Drained reports a closed server with every stream unregistered. Until
// then the workers stay: a closing server still needs them to drain aborted
// streams' queues (Session.Run returns a latched error without decoding, so
// the drain is fast).
func (o *order) Drained() bool { return o.closed && len(o.streams) == 0 }

// Done is the epilogue of one task (stream.complete).
func (o *order) Done(j core.Job, err error) {
	tk := j.(*task)
	tk.st.complete(tk, err)
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
	s.pendingCost += tk.cost
	s.pool.Queue(1)
	s.mu.Unlock()
	tk.st.touch()
}
