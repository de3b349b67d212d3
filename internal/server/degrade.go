package server

import (
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/obs"
)

// The degradation ladder. Each rung subsumes the ones below it; the
// monitor climbs one rung per Dwell while overloaded and descends one
// per Dwell once the pressure clears.
const (
	// rungNormal: full decode for every stream.
	rungNormal = 0
	// rungShedB: every stream sheds B pictures (substituted from the
	// nearest reference at plan time; survivors stay bit-identical).
	rungShedB = 1
	// rungShedRef: P pictures shed too — only intra anchors decode —
	// and every stream's resilience is floored at conceal-picture so
	// damage keeps streams alive instead of failing them.
	rungShedRef = 2
	// rungReject: additionally, the lowest-priority class is paused
	// with bounded backoff and new streams are rejected outright.
	rungReject = 3
)

// The deadline-miss-rate (EWMA) thresholds that escalate and
// de-escalate the ladder.
const (
	missHigh = 0.3
	missLow  = 0.05
)

// applyRung pushes one rung's shed/degrade settings into a session.
// Called with s.mu held (rung moves and stream registration serialize
// on it); takes effect at the stream's next planned unit.
func applyRung(st *stream, rung int) {
	switch {
	case rung >= rungShedRef:
		st.sess.SetShed(core.ShedRef)
		st.sess.SetDegraded(true)
	case rung == rungShedB:
		st.sess.SetShed(core.ShedB)
		st.sess.SetDegraded(false)
	default:
		st.sess.SetShed(core.ShedNone)
		st.sess.SetDegraded(false)
	}
}

// SetDegradation forces the ladder to a rung (clamped to 0..3) — the
// deterministic control the forced-degradation tests and the harness
// use, typically with Config.DisableAutoDegrade. Safe at any time; the
// monitor keeps adjusting from the new position unless auto-degrade is
// off.
func (s *Server) SetDegradation(rung int) {
	if rung < rungNormal {
		rung = rungNormal
	}
	if rung > rungReject {
		rung = rungReject
	}
	s.mu.Lock()
	s.setRungLocked(rung, time.Now())
	s.mu.Unlock()
	s.pool.Wake()
}

// setRungLocked moves the ladder and applies the new rung to every
// admitted stream, recording a KindDegrade event on each stream's lane.
func (s *Server) setRungLocked(rung int, now time.Time) {
	if rung == s.rung {
		return
	}
	s.rung = rung
	s.lastMove = now
	for _, st := range s.streams {
		applyRung(st, rung)
		s.obs.Record(obs.KindDegrade, st.lane, now, 0, -1, -1, rung)
	}
	if rung < rungReject {
		// Leaving the pause rung: release everyone immediately and let
		// the backoff exponents heal.
		for _, st := range s.streams {
			if st.paused {
				s.resumeLocked(st, now)
			}
			st.pauseExp = 0
		}
	}
}

// monitor is the overload controller: a periodic tick that expires
// pauses, runs the watchdog, and (unless frozen) moves the ladder from
// two observed signals — queued tasks per worker, and the
// deadline-miss rate EWMA.
func (s *Server) monitor() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.Tick)
	defer tick.Stop()
	for {
		select {
		case <-s.stopMon:
			return
		case now := <-tick.C:
			s.tick(now)
		}
	}
}

func (s *Server) tick(now time.Time) {
	// Miss-rate EWMA over this tick's displays.
	disp, miss := s.displays.Load(), s.misses.Load()
	dd, dm := disp-s.seenDisp, miss-s.seenMiss
	s.seenDisp, s.seenMiss = disp, miss

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if dd > 0 {
		rate := float64(dm) / float64(dd)
		s.missEWMA += 0.3 * (rate - s.missEWMA)
	} else if len(s.streams) == 0 {
		// Nobody is admitted, so no frame can miss. The rate must decay
		// all the same: at the reject rung only arrivals could refresh
		// it, and a stale rate above missLow would reject them for good.
		s.missEWMA -= 0.3 * s.missEWMA
	}

	// Pause expiry and watchdog.
	pausedPending := 0
	for _, st := range s.streams {
		if st.paused {
			if now.After(st.pauseUntil) {
				s.resumeLocked(st, now)
			} else {
				pausedPending += len(st.pending)
			}
			continue
		}
		if s.cfg.Watchdog > 0 && (len(st.pending) > 0 || st.inFlight > 0) &&
			now.Sub(st.progress()) > s.cfg.Watchdog && st.sess.Err() == nil {
			s.wedged.Add(1)
			st.fail(ErrWedged)
		}
	}

	// Ladder moves. Paused streams' queued tasks are held, not offered
	// load — counting them would keep the ladder pinned at the top rung
	// for as long as anyone stays paused, so only runnable backlog feeds
	// the signal.
	if !s.cfg.DisableAutoDegrade {
		load := float64(s.pool.Queued()-pausedPending) / float64(s.cfg.Workers)
		hot := load > s.cfg.HighWater || s.missEWMA > missHigh
		cold := load < s.cfg.LowWater && s.missEWMA < missLow
		if now.Sub(s.lastMove) >= s.cfg.Dwell {
			switch {
			case hot && s.rung < rungReject:
				s.setRungLocked(s.rung+1, now)
			case cold && s.rung > rungNormal:
				s.setRungLocked(s.rung-1, now)
			}
		}
	}
	if s.rung >= rungReject {
		s.pauseLowestLocked(now)
	}
	s.mu.Unlock()
	// Wake workers: resumed streams' queues are runnable again, and a
	// drained-but-parked worker re-checks the exit condition.
	s.pool.Wake()
}

// pauseLowestLocked pauses every unpaused stream of the lowest priority
// class — but only when more than one class is present: with a single
// class there is nobody to yield to, and pausing everyone would only
// add idle gaps. Each pause episode doubles the stream's backoff
// (capped), so a stream re-paused under sustained overload still
// resumes on a bounded schedule — re-admission is guaranteed, never
// starved. A stream that has not completed a task since its last
// resume (mustServe) is exempt: without that window, a pause expiring
// in the same tick that stays at the top rung would re-pause the
// stream before any worker could pick its tasks, and the lowest class
// would see zero service for as long as the overload lasts.
func (s *Server) pauseLowestLocked(now time.Time) {
	lo, hi := -1, -1
	for _, st := range s.streams {
		if st.sess.Err() != nil {
			continue
		}
		if lo < 0 || st.prio < lo {
			lo = st.prio
		}
		if st.prio > hi {
			hi = st.prio
		}
	}
	if lo < 0 || lo == hi {
		return
	}
	for _, st := range s.streams {
		if st.prio != lo || st.paused || st.mustServe || st.sess.Err() != nil {
			continue
		}
		backoff := s.cfg.PauseBase << st.pauseExp
		if backoff > s.cfg.PauseMax || backoff <= 0 {
			backoff = s.cfg.PauseMax
		}
		if st.pauseExp < 30 {
			st.pauseExp++
		}
		st.paused = true
		st.pauseUntil = now.Add(backoff)
		st.pausedCount++
		s.pauses.Add(1)
		s.obs.Record(obs.KindPause, st.lane, now, backoff, -1, -1, s.rung)
	}
}

// resumeLocked lifts one stream's pause and restarts its progress
// clock (paused time must not count against the watchdog). The stream
// is owed one completed task (mustServe) before it may be paused
// again — the guaranteed service window that keeps bounded backoff an
// actual progress bound rather than a pause/resume livelock.
func (s *Server) resumeLocked(st *stream, now time.Time) {
	st.paused = false
	st.mustServe = true
	st.touch()
	s.obs.Record(obs.KindResume, st.lane, now, 0, -1, -1, s.rung)
}
