package server

import "mpeg2par/internal/frame"

// FrameStats exposes the spare-frame store's counters, lent bytes and
// bound included, to the lending tests.
func (s *Server) FrameStats() frame.StoreStats { return s.frames.Stats() }
