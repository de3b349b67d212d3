package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpeg2par"
)

// sliceStats is what one timed slice measured.
type sliceStats struct {
	pics      int           // frames delivered through sinks
	wall      time.Duration // first operation issued to last returned
	latP50    float64       // ms from due, this slice's frames
	latP90    float64
	latP99    float64
	overLimit int     // frames later than frameDeadline, shed or never delivered
	offered   int     // frames the slice's operations should deliver
	hostK     float64 // the runner's hostK while the slice ran
	refBefore float64 // reference loop, passes/s
	refAfter  float64
	genLate   []float64 // ms each paced arrival was issued late
	perClient []float64 // service each client (closed loop) or stream (open loop) got, for fairness
}

// refMean is the host speed the slice ran at, as the reference loop saw
// it on either side.
func (s *sliceStats) refMean() float64 { return (s.refBefore + s.refAfter) / 2 }

// runner drives one workload: it owns the stream, the long-lived server
// of the service workloads, and the operation accounting.
type runner struct {
	w   *workload
	s   *streamSet
	set settings
	ref *refLoop
	rng *rand.Rand // arrival schedules
	srv *mpeg2par.Server

	// hostK is nominal over measured reference-loop speed as last read
	// (1 until the first reading): how much slower than nominal the host
	// is running. Only svc-paced's schedule uses it.
	hostK float64

	tr   *tracer // nil on the untraced cycles
	iter atomic.Int64

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string // first few, for the report

	streamStats []*mpeg2par.StreamStats // kept while keepStats is set
	keepStats   bool
}

func newRunner(w *workload, s *streamSet, seed int64, set settings) *runner {
	r := &runner{w: w, s: s, set: set, ref: newRefLoop(2), hostK: 1,
		rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	switch w.kind {
	case kindSaturate:
		// The ladder is frozen: with it on, the sizing runs flipped to
		// rung 1 and substituted B pictures, which makes pictures/s
		// bistable.
		r.srv = mpeg2par.NewServer(mpeg2par.ServerConfig{Workers: w.workers, DisableAutoDegrade: true})
	case kindPaced:
		// Default configuration but for the admission queue: when the
		// host stalls for a tenth of a second a dozen arrivals pile up,
		// and with the default depth of 4 the server turns the rest
		// away. Here they wait, and the wait is charged to their frames.
		r.srv = mpeg2par.NewServer(mpeg2par.ServerConfig{Workers: w.workers, QueueDepth: pacedQueueDepth})
	}
	return r
}

func (r *runner) close() {
	if r.srv != nil {
		if err := r.srv.Close(); err != nil {
			r.note(false, "server close: %v", err)
		}
		r.srv = nil
	}
}

// note counts one operation.
func (r *runner) note(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// absorb adds another runner's operation counts to r's (probes that need
// a differently configured runner over the same stream).
func (r *runner) absorb(o *runner) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += o.attempted
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// frameCheck validates one operation's deliveries: display indices count
// up from zero, and on verifying operations every frame hashes to the
// oracle's. Timed operations skip the hash so that hashing is not what
// is measured.
type frameCheck struct {
	oracle []uint64
	verify bool
	n      int
	bad    string
}

func (c *frameCheck) frame(f *mpeg2par.Frame) {
	if c.bad == "" {
		switch {
		case f.DisplayIndex != c.n:
			c.bad = fmt.Sprintf("frame %d arrived with display index %d", c.n, f.DisplayIndex)
		case c.verify && c.n < len(c.oracle) && frameHash(f) != c.oracle[c.n]:
			c.bad = fmt.Sprintf("frame %d differs from the sequential oracle", c.n)
		}
	}
	c.n++
}

func (c *frameCheck) result(err error, leaked int64) (bool, string) {
	switch {
	case err != nil:
		return false, err.Error()
	case c.bad != "":
		return false, c.bad
	case c.n != len(c.oracle):
		return false, fmt.Sprintf("%d frames delivered, want %d", c.n, len(c.oracle))
	case leaked != 0:
		return false, fmt.Sprintf("%d frame bytes leaked", leaked)
	}
	return true, ""
}

// decodeOp is one operation of a decode workload: the public Decode over
// the stream's bytes, frames counted at the WithFrameSink callback.
// Latencies (ms from the call, when every byte was available) are
// appended to lat when it is non-nil.
func (r *runner) decodeOp(verify bool, lat *[]float64, extra ...mpeg2par.Option) (int, *mpeg2par.Stats) {
	return r.decodeSrc(mpeg2par.FromBytes(r.s.data), verify, lat, extra...)
}

// decodeSrc is decodeOp over an arbitrary source of the stream's bytes.
func (r *runner) decodeSrc(src mpeg2par.Source, verify bool, lat *[]float64, extra ...mpeg2par.Option) (int, *mpeg2par.Stats) {
	iter := int(r.iter.Add(1))
	chk := frameCheck{oracle: r.s.oracle, verify: verify}
	sp := r.tr.begin("mpeg2par.Decode", -1, iter, 0)
	t0 := time.Now()
	opts := append([]mpeg2par.Option{
		mpeg2par.WithMode(r.w.mode),
		mpeg2par.WithWorkers(r.w.workers),
		mpeg2par.WithFrameSink(func(f *mpeg2par.Frame) {
			if lat != nil {
				*lat = append(*lat, msSince(t0))
			}
			r.tr.event("frame", sp, iter, 0)
			chk.frame(f)
		}),
	}, extra...)
	if r.s.index != nil {
		opts = append(opts, mpeg2par.WithIndex(r.s.index))
	}
	st, err := mpeg2par.Decode(context.Background(), src, opts...)
	r.tr.end(sp)
	ok, why := chk.result(err, st.LeakedFrameBytes)
	r.note(ok, "%s: Decode: %s", r.w.name, why)
	return chk.n, st
}

// streamOp is one operation of a service workload: one stream through
// Server.Decode. due is when the stream was scheduled to arrive (now,
// for the closed loop); gopEvery is the pacing interval of one GOP (0
// unpaced), so frame k of GOP g is due at due + g·gopEvery. Frames later
// than limit, and frames never delivered, count as over the limit.
func (r *runner) streamOp(lane int, due time.Time, gopEvery, limit time.Duration, verify bool,
	lat *[]float64, over *int, opts ...mpeg2par.StreamOption) int {
	iter := int(r.iter.Add(1))
	chk := frameCheck{oracle: r.s.oracle, verify: verify}
	gopPics := r.w.enc.GOPSize
	root := r.tr.beginAt("stream", due, -1, iter, lane)
	sp := r.tr.begin("Server.Decode", root, iter, lane)
	opts = append(opts, mpeg2par.WithStreamSink(func(f *mpeg2par.Frame) {
		d := time.Since(due) - time.Duration(f.DisplayIndex/gopPics)*gopEvery
		if lat != nil {
			*lat = append(*lat, float64(d)/1e6)
		}
		if d > limit {
			*over++
		}
		r.tr.event("frame", sp, iter, lane)
		chk.frame(f)
	}))
	ss, err := r.srv.Decode(context.Background(), mpeg2par.FromBytes(r.s.data), opts...)
	r.tr.end(sp)
	r.tr.end(root)
	var leaked int64
	shed := 0
	if ss.Stats != nil {
		leaked = ss.Stats.LeakedFrameBytes
		shed = ss.Stats.Shed.Total()
	}
	ok, why := chk.result(err, leaked)
	r.note(ok, "%s: Server.Decode: %s", r.w.name, why)
	// A shed picture reaches the sink as a substitute: it is not a
	// delivered picture, and like one never delivered it is over the
	// limit. Shedding is the server's decision, not a failed operation.
	*over += shed + len(r.s.oracle) - chk.n
	if r.keepStats {
		r.mu.Lock()
		r.streamStats = append(r.streamStats, ss)
		r.mu.Unlock()
	}
	return max(0, chk.n-shed)
}

// warmUp runs the untimed slice that precedes the measurement, with
// every delivered frame hashed. A service workload hashes a few streams
// one at a time through the idle server first — that also calibrates the
// server's cost model, without which admission charges every stream half
// a worker — and then warms up under load unhashed: under load the
// ladder may shed, and a substituted frame is not a wrong frame.
func (r *runner) warmUp() {
	if r.w.kind == kindDecode {
		r.slice(r.sliceLen(), true)
		return
	}
	for i := 0; i < 4; i++ {
		r.verifyOnce()
	}
	r.slice(r.sliceLen(), false)
}

// verifyOnce runs one operation, alone, with every frame hashed.
func (r *runner) verifyOnce() {
	if r.w.kind == kindDecode {
		r.decodeOp(true, nil)
		return
	}
	var over int
	r.streamOp(0, time.Now(), 0, frameDeadline, true, nil, &over)
}

// slice runs one timed slice of the workload for about d.
func (r *runner) slice(d time.Duration, verify bool) sliceStats {
	var st sliceStats
	var lat []float64
	switch r.w.kind {
	case kindDecode:
		lat = make([]float64, 0, 16*len(r.s.oracle))
		start := time.Now()
		for {
			n, _ := r.decodeOp(verify, &lat)
			st.pics += n
			st.offered += len(r.s.oracle)
			if time.Since(start) >= d {
				break
			}
		}
		st.wall = time.Since(start)
	case kindSaturate:
		lat = r.saturateSlice(d, verify, &st)
	case kindPaced:
		lat = r.pacedSlice(d, verify, &st)
	}
	sort.Float64s(lat)
	st.latP50 = percentile(lat, 0.50)
	st.latP90 = percentile(lat, 0.90)
	st.latP99 = percentile(lat, 0.99)
	return st
}

// saturateSlice: saturateClients goroutines each resubmit the stream as
// soon as the previous one returns, until d has passed.
func (r *runner) saturateSlice(d time.Duration, verify bool, st *sliceStats) []float64 {
	type client struct {
		lat           []float64
		pics, offered int
		over          int
	}
	cs := make([]client, saturateClients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range cs {
		wg.Add(1)
		go func(c *client, lane int) {
			defer wg.Done()
			for {
				c.pics += r.streamOp(lane, time.Now(), 0, frameDeadline, verify, &c.lat, &c.over)
				c.offered += len(r.s.oracle)
				if time.Since(start) >= d {
					return
				}
			}
		}(&cs[i], i)
	}
	wg.Wait()
	st.wall = time.Since(start)
	var lat []float64
	for i := range cs {
		lat = append(lat, cs[i].lat...)
		st.pics += cs[i].pics
		st.offered += cs[i].offered
		st.overLimit += cs[i].over
		st.perClient = append(st.perClient, float64(cs[i].pics))
	}
	return lat
}

// pacedSchedule returns the arrival offsets of one slice of svc-paced: n
// arrivals at seeded uniform instants over window (a Poisson process
// conditioned on its count, so every slice offers the same number of
// pictures), the first at 0 and the last at window so the offered span
// is the same in every slice, and no more than pacedInFlight streams
// nominally in flight.
func pacedSchedule(rng *rand.Rand, n int, window, streamLen time.Duration) []time.Duration {
	arr := make([]time.Duration, n)
	for i := 1; i < n-1; i++ {
		arr[i] = time.Duration(rng.Float64() * float64(window))
	}
	if n > 1 {
		arr[n-1] = window
	}
	sort.Slice(arr, func(i, j int) bool { return arr[i] < arr[j] })
	for i := pacedInFlight; i < n; i++ {
		if earliest := arr[i-pacedInFlight] + streamLen; arr[i] < earliest {
			arr[i] = earliest
		}
	}
	return arr
}

// pacedSlice: an open loop. Streams arrive on the seeded schedule whether
// or not the server keeps up; each is timed from when it was due, so a
// stall is charged to the streams behind it, and how late the generator
// itself ran is recorded.
func (r *runner) pacedSlice(d time.Duration, verify bool, st *sliceStats) []float64 {
	// The offered rate is frozen in nominal-host time: on a host running
	// 1/hostK as fast, the whole schedule stretches by hostK, so the
	// server sees the same utilisation whatever the host's weather and
	// its latencies scale with the host like everyone else's. The frame
	// deadline stretches with it.
	offered := pacedOfferedPicsPerS * r.set.offeredScale / r.hostK
	rate := offered / pacedConcurrency // one stream's pictures/s
	limit := time.Duration(float64(frameDeadline) * r.hostK / r.set.offeredScale)
	pics := len(r.s.oracle)
	gopEvery := time.Duration(float64(r.w.enc.GOPSize) / rate * float64(time.Second))
	streamLen := time.Duration(float64(pics) / rate * float64(time.Second))
	window := d - streamLen
	if window < 0 {
		window = 0
	}
	n := int(math.Round(offered * window.Seconds() / float64(pics)))
	if n < 1 {
		n = 1
	}
	arr := pacedSchedule(r.rng, n, window, streamLen)

	// One goroutine per stream, started by a dispatcher that sleeps from
	// one due time to the next: the generator never waits for the
	// server, and its goroutines are the streams in flight.
	type op struct {
		lat  []float64
		pics int
		over int
		dur  time.Duration
	}
	ops := make([]op, n)
	var wg sync.WaitGroup
	start := time.Now()
	for k := range ops {
		due := start.Add(arr[k])
		time.Sleep(time.Until(due))
		st.genLate = append(st.genLate, msSince(due))
		wg.Add(1)
		go func(o *op, lane int) {
			defer wg.Done()
			o.pics = r.streamOp(lane, due, gopEvery, limit, verify, &o.lat, &o.over,
				mpeg2par.WithPicRate(rate), mpeg2par.WithFrameDeadline(limit))
			o.dur = time.Since(due)
		}(&ops[k], k%pacedInFlight)
	}
	wg.Wait()
	st.wall = time.Since(start)
	st.offered = n * pics
	var lat []float64
	for i := range ops {
		lat = append(lat, ops[i].lat...)
		st.pics += ops[i].pics
		st.overLimit += ops[i].over
		st.perClient = append(st.perClient, 1/ops[i].dur.Seconds())
	}
	return lat
}

// sliceLen is the length of this workload's timed slices. The open loop
// needs longer ones: a slice must be several streams long for its ramp
// at either end not to be what is measured.
func (r *runner) sliceLen() time.Duration {
	if r.w.kind == kindPaced {
		return r.set.pacedSliceLen
	}
	return r.set.sliceLen
}

// memEvery: one slice in this many is a memory slice.
const memEvery = 8

// measure runs the protocol for about the given time: timed slices of
// the workload, each bracketed by the reference loop with a GC before
// it, and every memEvery-th slice a memory slice instead, which is not
// timed. It returns the timed slices and the memory slices' peaks in MB.
func (r *runner) measure(total time.Duration) (timed []sliceStats, heapMB []float64) {
	deadline := time.Now().Add(total)
	n := r.w.refGoroutines()
	readRef := func() float64 {
		v := r.ref.run(n, r.set.refLen)
		r.hostK = refNominal[n] / v
		return v
	}
	var prev float64
	for i := 0; len(timed) == 0 || time.Until(deadline) >= r.sliceLen()+r.set.refLen; i++ {
		if i%(memEvery+1) == 0 {
			heapMB = append(heapMB, r.memSlice(r.sliceLen()))
			prev = readRef()
			continue
		}
		runtime.GC()
		st := r.slice(r.sliceLen(), false)
		st.hostK = r.hostK
		st.refBefore, st.refAfter = prev, readRef()
		prev = st.refAfter
		timed = append(timed, st)
	}
	return timed, heapMB
}

// memSlice runs one slice of the workload with a collector running back
// to back beside it, and returns the largest heap seen just after a
// collection, in MB: the peak of what the workload keeps live, free of
// where in its cycle the pacer's own collector happens to be (sampling
// the heap of an undisturbed slice read 17 MB in one process and 23 MB
// in the next on the same bytes). Continuous collection slows the
// slice, so a memory slice contributes nothing but this number.
func (r *runner) memSlice(d time.Duration) float64 {
	stop := make(chan struct{})
	done := make(chan struct{})
	var peak uint64
	go func() {
		defer close(done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			runtime.GC()
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	r.slice(d, false)
	close(stop)
	<-done
	return float64(peak) / 1e6
}
