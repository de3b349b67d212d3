package main

import (
	"sync"
	"time"
)

// The reference loop is the benchmark's yardstick for the speed of the
// host at this moment. This machine is shared: identical decodes run a
// tenth to a fifth faster or slower from one 50 ms window to the next,
// and on a minute scale too. Each timed slice is therefore bracketed by
// a short run of this loop, on as many goroutines as the slice uses
// workers, and the slice's times are scaled by nominal/measured loop
// speed (frozen.go). README.md has the sizing runs that chose the
// lengths: what matters is that the loop runs close in time to the work
// and long enough (some 150 ms per slice, both sides together) for its
// own reading to be steady.
//
// The loop is frozen: changing it changes every normalised number, so it
// lives here and touches nothing of the decoder. One pass is three
// kernels over private buffers of 1 MiB, so that the yardstick does not
// hang on one property of the core it shares: a dependent multiply-add
// chain with a store per byte, four independent such chains, and four
// 64-bit multiply/shift chains.

const refBufBytes = 1 << 20

// refState is one goroutine's private buffers and accumulators.
type refState struct {
	b    []byte
	w    []uint64
	acc  uint32
	acc4 [4]uint32
	acc8 [4]uint64
}

type refLoop struct {
	states []*refState
}

func newRefLoop(maxGoroutines int) *refLoop {
	r := &refLoop{states: make([]*refState, maxGoroutines)}
	for i := range r.states {
		r.states[i] = &refState{b: make([]byte, refBufBytes), w: make([]uint64, refBufBytes/8), acc: uint32(i + 1)}
	}
	return r
}

// pass is one pass of the frozen loop.
func (s *refState) pass() {
	b := s.b
	acc := s.acc
	for i := range b {
		acc = acc*31 + uint32(b[i])
		b[i] = byte(acc >> 3)
	}
	s.acc = acc

	a0, a1, a2, a3 := s.acc4[0], s.acc4[1], s.acc4[2], s.acc4[3]
	for i := 0; i+4 <= len(b); i += 4 {
		a0 = a0*31 + uint32(b[i])
		a1 = a1*33 + uint32(b[i+1])
		a2 = a2*37 + uint32(b[i+2])
		a3 = a3*41 + uint32(b[i+3])
		b[i] = byte(a0 >> 3)
		b[i+1] = byte(a1 >> 3)
		b[i+2] = byte(a2 >> 3)
		b[i+3] = byte(a3 >> 3)
	}
	s.acc4 = [4]uint32{a0, a1, a2, a3}

	w := s.w
	c0, c1, c2, c3 := s.acc8[0], s.acc8[1], s.acc8[2], s.acc8[3]
	for i := 0; i+4 <= len(w); i += 4 {
		c0 = (c0 ^ w[i]) * 0x9E3779B97F4A7C15
		c1 = (c1 + w[i+1]) * 0xBF58476D1CE4E5B9
		c2 = (c2 ^ w[i+2]) + (c2 >> 7)
		c3 = (c3 + w[i+3]) ^ (c3 << 5)
		w[i] = c0 >> 3
		w[i+1] = c1 >> 5
		w[i+2] = c2
		w[i+3] = c3
	}
	s.acc8 = [4]uint64{c0, c1, c2, c3}
}

// run spins the loop on n goroutines for about d and returns the passes
// per second summed over them. Each goroutine divides whole passes by
// its own elapsed time, so the figure has no quantisation step.
func (r *refLoop) run(n int, d time.Duration) float64 {
	rates := make([]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := r.states[g]
			start := time.Now()
			passes := 0
			for {
				s.pass()
				passes++
				if el := time.Since(start); el >= d {
					rates[g] = float64(passes) / el.Seconds()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0.0
	for _, v := range rates {
		total += v
	}
	return total
}
