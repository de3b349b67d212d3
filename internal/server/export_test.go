package server

import "mpeg2par/internal/frame"

// FrameStats exposes the spare-frame store's counters, lent bytes and
// bound included, to the lending tests.
func (s *Server) FrameStats() frame.StoreStats { return s.frames.Stats() }

// FeedMarks returns, for each live stream, how many feed marks it keeps
// and how many of them are of frames fed and not yet delivered.
func (s *Server) FeedMarks() [][2]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n [][2]int
	for _, st := range s.streams {
		st.dmu.Lock()
		pending := 0
		for _, m := range st.feedAt {
			if m.fed {
				pending++
			}
		}
		n = append(n, [2]int{len(st.feedAt), pending})
		st.dmu.Unlock()
	}
	return n
}
