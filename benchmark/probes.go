package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"mpeg2par"
	"mpeg2par/internal/bits"
	"mpeg2par/internal/core"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/faults"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/kernels"
	"mpeg2par/internal/obs"
	"mpeg2par/internal/sched"
	"mpeg2par/internal/simsched"
	"mpeg2par/internal/stream"
)

// The traced pass: one extra cycle, apart from the timed slices, that
// produces every per-layer metric. Each layer is measured from outside,
// by timing calls into its exported functions; every span the harness
// records goes to the trace file. End-to-end numbers never come from
// here.

// probe carries the state the per-layer probes share.
type probe struct {
	r    *runner
	out  map[string]spread
	unit time.Duration // the time one small probe may take
	m    *core.StreamMap
	pics float64 // pictures in the stream

	// mode and workers of the core-level probes: the workload's own, or
	// for the service workloads the pool the Server runs.
	mode    core.Mode
	workers int

	publicRate float64 // public Decode, tracing off, pictures/s
	batchRate  float64 // core.DecodeScanned in the same mode
	seqRate    float64 // core.DecodeScanned, sequential
	refs       []float64
}

// repeat calls fn at least once and until d has passed, and returns the
// number of calls and the time they took.
func repeat(d time.Duration, fn func()) (int, time.Duration) {
	start := time.Now()
	n := 0
	for {
		fn()
		n++
		if el := time.Since(start); el >= d {
			return n, el
		}
	}
}

// tracedPass runs every probe, writes the trace file, and returns the
// workload-validity guards that failed.
func (r *runner) tracedPass(total time.Duration, out map[string]spread) ([]string, error) {
	r.tr = newTracer()
	defer func() { r.tr = nil }()
	for _, d := range perLayerDefs {
		put1(out, d.name, 0) // a layer the workload bypasses does no work
	}
	m, err := core.Scan(r.s.data)
	if err != nil {
		return nil, err
	}
	p := &probe{r: r, out: out, unit: total / 48, m: m, pics: float64(len(r.s.oracle)),
		mode: r.w.mode, workers: r.w.workers}
	if r.w.kind != kindDecode {
		p.mode = core.ModeSliceImproved
	}

	p.host()
	if err := p.layers(); err != nil {
		return nil, err
	}
	p.host()
	p.scans()
	p.sequential()
	if err := p.coreBatch(); err != nil {
		return nil, err
	}
	p.host()
	if err := p.resilience(); err != nil {
		return nil, err
	}
	if err := p.simulator(); err != nil {
		return nil, err
	}
	p.public()
	p.host()
	p.scheduler()
	if r.w.indexed {
		if err := p.split(); err != nil {
			return nil, err
		}
	}
	if r.w.kind != kindDecode {
		p.server()
	}
	if r.w.name == "seq-ipb-sd" {
		if err := p.kernelTiers(); err != nil {
			return nil, err
		}
	}
	p.host()
	p.hostSummary()

	if err := r.writeTrace(); err != nil {
		return nil, err
	}
	return guards(r.w, out), nil
}

// writeTrace writes the spans as Chrome trace JSON and validates it.
func (r *runner) writeTrace() error {
	var buf bytes.Buffer
	if err := r.tr.writeChrome(&buf, "benchmark "+r.w.name); err != nil {
		return err
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		return fmt.Errorf("trace does not validate: %w", err)
	}
	if err := os.MkdirAll(r.set.traceDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.set.traceDir, "trace_"+r.w.name+".json"), buf.Bytes(), 0o644)
}

// host samples the reference loop, so the report says how fast the host
// was while the layers were measured and how much that moved.
func (p *probe) host() {
	p.refs = append(p.refs, p.r.ref.run(1, p.unit/2))
}

func (p *probe) hostSummary() {
	put(p.out, "host.ref_passes_per_s.n1", p.refs)
	put1(p.out, "host.ref_passes_per_s.n2", p.r.ref.run(2, p.unit))
	lo, hi := p.refs[0], p.refs[0]
	for _, v := range p.refs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	put1(p.out, "host.drift_share", share(hi-lo, median(p.refs)))
	put1(p.out, "host.raw_pics_per_s", p.publicRate)
	put1(p.out, "encoder.setup_pics_per_s", ratio(float64(p.r.w.enc.Pictures), p.r.s.encodeS))
}

// layers runs the layer replay: once verifying, then timed for a tenth
// of the pass, and files the mpeg2, quant, dct, motion, decoder and frame
// metrics plus the cost-model error.
func (p *probe) layers() error {
	r := p.r
	if _, err := replay(r.s.data, r.s.oracle, true, nil, 0); err != nil {
		return err
	}
	var runs []*replayStats
	var err error
	repeat(4*p.unit, func() {
		var st *replayStats
		tr := r.tr
		if len(runs) > 0 {
			tr = nil // one replay's spans are the trace; the rest only add to the medians
		}
		if st, err = replay(r.s.data, r.s.oracle, false, tr, int(r.iter.Add(1))); err == nil {
			runs = append(runs, st)
		}
	})
	if err != nil {
		return err
	}
	us := func(f func(*replayStats) time.Duration) []float64 {
		xs := make([]float64, len(runs))
		for i, st := range runs {
			xs[i] = float64(f(st)) / 1e3 / float64(st.pics)
		}
		return xs
	}
	over := func(num, den func(*replayStats) float64) []float64 {
		xs := make([]float64, len(runs))
		for i, st := range runs {
			xs[i] = ratio(num(st), den(st))
		}
		return xs
	}
	total := func(st *replayStats) float64 { return float64(st.decodeTime()) }
	out := p.out
	put(out, "mpeg2.vld_us_per_pic", us(func(s *replayStats) time.Duration { return s.vld }))
	put(out, "mpeg2.header_us_per_pic", us(func(s *replayStats) time.Duration { return s.header }))
	put(out, "decoder.recon_us_per_pic", us(func(s *replayStats) time.Duration { return s.recon }))
	put(out, "dct.idct_us_per_pic", us(func(s *replayStats) time.Duration { return s.idct }))
	put(out, "motion.mc_us_per_pic", us(func(s *replayStats) time.Duration { return s.mc }))
	// Derived: what is left of reconstruction after the two replays.
	put(out, "decoder.store_us_per_pic", us(func(s *replayStats) time.Duration {
		return max(0, s.recon-s.idct-s.mc)
	}))
	for i, suffix := range []string{"", ".i", ".p", ".b"} {
		if i == 0 {
			continue
		}
		i := i
		perType := func(f func(*typeTimes) time.Duration) []float64 {
			xs := make([]float64, len(runs))
			for k, st := range runs {
				xs[k] = ratio(float64(f(&st.byType[i]))/1e3, float64(st.byType[i].pics))
			}
			return xs
		}
		put(out, "mpeg2.vld_us_per_pic"+suffix, perType(func(t *typeTimes) time.Duration { return t.vld }))
		put(out, "decoder.recon_us_per_pic"+suffix, perType(func(t *typeTimes) time.Duration { return t.recon }))
	}
	put(out, "mpeg2.vld_ns_per_bit", over(func(s *replayStats) float64 { return float64(s.vld) },
		func(s *replayStats) float64 { return float64(s.vldBits) }))
	put(out, "dct.idct_ns_per_block", over(func(s *replayStats) float64 { return float64(s.idct) },
		func(s *replayStats) float64 { return float64(s.idctBlocks) }))
	put(out, "motion.mc_ns_per_mb", over(func(s *replayStats) float64 { return float64(s.mc) },
		func(s *replayStats) float64 { return float64(s.mcMBs) }))
	put(out, "mpeg2.vld_share", over(func(s *replayStats) float64 { return float64(s.vld) }, total))
	put(out, "decoder.recon_share", over(func(s *replayStats) float64 { return float64(s.recon) }, total))
	put(out, "dct.idct_share", over(func(s *replayStats) float64 { return float64(s.idct) }, total))
	put(out, "motion.mc_share", over(func(s *replayStats) float64 { return float64(s.mc) }, total))

	st := runs[0] // counts repeat exactly
	n := float64(st.pics)
	put1(out, "mpeg2.mbs_per_pic", float64(st.work.MBs)/n)
	put1(out, "mpeg2.coded_bits_per_pic", float64(st.vldBits)/n)
	put1(out, "dct.coded_blocks_per_pic", float64(st.idctBlocks)/n)
	put1(out, "quant.coefs_per_pic", float64(st.work.Coefs)/n)
	put1(out, "motion.pred_mbs_per_pic", float64(st.work.PredMBs)/n)
	put1(out, "motion.bidir_mbs_per_pic", float64(st.work.BidirMBs)/n)

	// frame.Pool: one Get+Put round trip on a warm pool.
	pool := frame.NewPool(p.m.Seq.Width, p.m.Seq.Height)
	pool.Put(pool.Get())
	calls, el := repeat(p.unit/4, func() {
		for i := 0; i < 1000; i++ {
			pool.Put(pool.Get())
		}
	})
	put1(out, "frame.pool_getput_ns", float64(el)/float64(calls*1000))

	// sched.CostModel: calibrate on the first half of the slices'
	// (bytes, time) pairs, predict the second half.
	costs := st.costs
	model := &sched.CostModel{}
	for _, c := range costs[:len(costs)/2] {
		model.Observe(c.bytes, c.dur)
	}
	var errs []float64
	for _, c := range costs[len(costs)/2:] {
		if c.dur > 0 {
			errs = append(errs, math.Abs(float64(model.Predict(c.bytes)-c.dur))/float64(c.dur))
		}
	}
	sort.Float64s(errs)
	put1(out, "sched.cost_pred_err_p50", percentile(errs, 0.50))
	put1(out, "sched.cost_pred_err_p90", percentile(errs, 0.90))
	return nil
}

// scans times the three startcode scanners over the stream.
func (p *probe) scans() {
	data := p.r.s.data
	codes := 0
	calls, el := repeat(p.unit/2, func() {
		codes = 0
		for pos := 0; ; {
			i := bits.FindStartCode(data, pos)
			if i < 0 {
				break
			}
			codes++
			pos = i + 4
		}
	})
	put1(p.out, "bits.startcode_mb_per_s", float64(len(data))*float64(calls)/1e6/el.Seconds())
	put1(p.out, "bits.startcodes_per_pic", float64(codes)/p.pics)

	calls, el = repeat(p.unit/2, func() {
		sp := p.r.tr.begin("core.Scan", -1, 0, 0)
		_, _ = core.Scan(data) // scanned without error at the top of the pass
		p.r.tr.end(sp)
	})
	put1(p.out, "core.scan_us_per_pic", float64(el)/1e3/float64(calls)/p.pics)

	calls, el = repeat(p.unit/2, func() {
		sp := p.r.tr.begin("stream.ScanReader", -1, 0, 0)
		_, err := stream.ScanReader(bytes.NewReader(data), 64<<10, false)
		p.r.tr.end(sp)
		p.r.note(err == nil, "stream.ScanReader: %v", err)
	})
	put1(p.out, "stream.scan_us_per_pic", float64(el)/1e3/float64(calls)/p.pics)
}

// sequential times the sequential decoder (decoder.New, then every
// frame) and counts its allocations. Frames are taken one at a time with
// Next rather than All, which would hold the whole stream's frames.
func (p *probe) sequential() {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls, el := repeat(2*p.unit, func() {
		sp := p.r.tr.begin("decoder.Decoder", -1, 0, 0)
		d, err := decoder.New(p.r.s.data)
		n := 0
		for err == nil {
			if _, err = d.Next(); err == nil {
				n++
			}
		}
		p.r.tr.end(sp)
		p.r.note(err == io.EOF && n == len(p.r.s.oracle), "sequential decoder: %d frames, %v", n, err)
	})
	runtime.ReadMemStats(&after)
	put1(p.out, "decoder.seq_pics_per_s", p.pics*float64(calls)/el.Seconds())
	put1(p.out, "decoder.allocs_per_pic", float64(after.Mallocs-before.Mallocs)/(p.pics*float64(calls)))
}

// batch is one core.DecodeScanned over the scanned stream.
func (p *probe) batch(name string, data []byte, m *core.StreamMap, opt core.Options) (*core.Stats, time.Duration, error) {
	sp := p.r.tr.begin(name, -1, 0, 0)
	t0 := time.Now()
	st, err := core.DecodeScanned(data, m, opt)
	d := time.Since(t0)
	p.r.tr.end(sp)
	return st, d, err
}

// coreBatch measures the parallel core without the streaming pipeline
// around it, in the workload's mode and sequentially, alternating so
// both see the same host, and derives speedup and the workers' time
// split.
func (p *probe) coreBatch() error {
	r := p.r
	par := core.Options{Mode: p.mode, Workers: p.workers, SplitIndex: r.s.index}
	seq := core.Options{Mode: core.ModeSequential, Workers: 1}
	var parT, seqT time.Duration
	var last *core.Stats
	var cpu time.Duration
	n := 0
	var err error
	repeat(6*p.unit, func() {
		var st *core.Stats
		var d time.Duration
		c0 := cpuTime()
		if st, d, err = p.batch("core.DecodeScanned", r.s.data, p.m, par); err != nil {
			return
		}
		cpu += cpuTime() - c0
		parT += d
		last = st
		if _, d, err = p.batch("core.DecodeScanned sequential", r.s.data, p.m, seq); err != nil {
			return
		}
		seqT += d
		n++
	})
	if err != nil {
		return fmt.Errorf("core batch: %w", err)
	}
	p.batchRate = p.pics * float64(n) / parT.Seconds()
	p.seqRate = p.pics * float64(n) / seqT.Seconds()
	speedup := p.batchRate / p.seqRate
	out := p.out
	put1(out, "core.batch_pics_per_s", p.batchRate)
	put1(out, "core.speedup_vs_seq", speedup)
	put1(out, "core.parallel_efficiency", share(speedup, float64(last.Workers)))
	put1(out, "core.cpu_us_per_pic", float64(cpu)/1e3/(p.pics*float64(n)))

	var busy, wait, maxBusy time.Duration
	tasks := 0
	for _, ws := range last.WorkerStats {
		busy += ws.Busy
		wait += ws.Wait
		tasks += ws.Tasks
		maxBusy = max(maxBusy, ws.Busy)
	}
	put1(out, "core.worker_busy_share", share(float64(busy), float64(busy+wait)))
	put1(out, "core.worker_wait_share", share(float64(wait), float64(busy+wait)))
	put1(out, "core.load_imbalance", ratio(float64(maxBusy)*float64(len(last.WorkerStats)), float64(busy)))
	put1(out, "core.tasks_per_pic", float64(tasks)/p.pics)
	put1(out, "frame.peak_frame_mb", float64(last.PeakFrameBytes)/1e6)
	// Stats.FramesAllocated holds the pool's cumulative bytes, whatever
	// its comment says; divided by one frame it is the count.
	put1(out, "frame.frames_allocated", float64(last.FramesAllocated)/float64(frame.New(p.m.Seq.Width, p.m.Seq.Height).Bytes()))
	return nil
}

// resilience measures what the resilient plan executor costs on a clean
// stream (ConcealSlice against fail-fast, alternating), then decodes a
// stream with seeded faults in the workload's mode and checks it frame
// for frame against the sequential decode under the same policy.
func (p *probe) resilience() error {
	r := p.r
	fast := core.Options{Mode: p.mode, Workers: p.workers}
	res := fast
	res.Resilience = core.ConcealSlice
	var fastT, resT time.Duration
	n := 0
	var err error
	repeat(4*p.unit, func() {
		var d time.Duration
		if _, d, err = p.batch("core.DecodeScanned fail-fast", r.s.data, p.m, fast); err != nil {
			return
		}
		fastT += d
		if _, d, err = p.batch("core.DecodeScanned conceal-slice", r.s.data, p.m, res); err != nil {
			return
		}
		resT += d
		n++
	})
	if err != nil {
		return fmt.Errorf("resilient decode: %w", err)
	}
	put1(p.out, "core.resilient_pics_per_s", p.pics*float64(n)/resT.Seconds())
	put1(p.out, "core.resilient_overhead_share", share(float64(resT-fastT), float64(resT)))

	// Eight whole slices dropped at seeded positions: the loss unit that
	// conceal-slice recovers whatever it hits (a burst of bad bytes that
	// lands in a picture header fails the decode under this policy, in
	// every mode alike). Both decodes see the same damaged bytes.
	spec := faults.Spec{Kind: faults.DropSlice, Count: 8}
	bad, _ := spec.Apply(r.s.data, r.rng.Int63())
	bm, err := core.ScanLenient(bad)
	if err != nil {
		return fmt.Errorf("faulted scan: %w", err)
	}
	hashes := func(opt core.Options) ([]uint64, *core.Stats, time.Duration, error) {
		var hs []uint64
		opt.Resilience = core.ConcealSlice
		opt.Sink = func(f *frame.Frame) { hs = append(hs, frameHash(f)) }
		st, d, err := p.batch("core.DecodeScanned faulted", bad, bm, opt)
		return hs, st, d, err
	}
	want, _, _, err := hashes(core.Options{Mode: core.ModeSequential, Workers: 1})
	if err != nil {
		return fmt.Errorf("faulted oracle: %w", err)
	}
	got, st, d, err := hashes(core.Options{Mode: p.mode, Workers: p.workers})
	if err != nil {
		return fmt.Errorf("faulted decode: %w", err)
	}
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == want[i]
	}
	r.note(same, "%s: faulted decode differs from the sequential oracle under conceal-slice", r.w.name)
	put1(p.out, "core.faulted_pics_per_s", float64(len(got))/d.Seconds())
	put1(p.out, "core.concealed_mbs_per_pic", ratio(float64(st.Concealed), float64(len(got))))
	return nil
}

// simulator profiles the stream's task costs on one worker, replays them
// in simsched at the workload's worker count, and sets the predicted
// speedup beside the one measured on real cores.
func (p *probe) simulator() error {
	r := p.r
	if p.mode == core.ModeSequential {
		return nil // one worker: nothing to predict
	}
	opt := core.Options{Mode: p.mode, Workers: 1, Profile: true, SplitIndex: r.s.index}
	if r.s.index != nil {
		opt.SplitParts = p.workers
	}
	st, _, err := p.batch("core.DecodeScanned profile", r.s.data, p.m, opt)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var one, many time.Duration
	if p.mode == core.ModeGOP {
		tasks := make([]simsched.GOPTask, len(st.GOPCosts))
		for i, c := range st.GOPCosts {
			tasks[i] = simsched.GOPTask{Cost: c.Cost, Pictures: len(p.m.GOPs[i].Pictures)}
		}
		one = simsched.SimulateGOP(tasks, 1).Makespan
		many = simsched.SimulateGOP(tasks, p.workers).Makespan
	} else {
		pics := mpeg2par.SliceProfileToSim(st.SliceProf)
		improved := p.mode == core.ModeSliceImproved
		one = simsched.SimulateSlices(pics, 1, improved).Makespan
		many = simsched.SimulateSlices(pics, p.workers, improved).Makespan
	}
	pred := ratio(float64(one), float64(many))
	real := p.batchRate / p.seqRate
	put1(p.out, "core.sim_speedup_pred", pred)
	put1(p.out, "core.sim_pred_error", share(math.Abs(pred-real), real))
	return nil
}

// chunkReader hands out at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(b []byte) (int, error) {
	if len(b) > c.n {
		b = b[:c.n]
	}
	return c.r.Read(b)
}

// public runs the workload's real Decode three ways in turn — tracing
// off with no harness spans, the harness's spans on, and WithTrace on —
// so the two tracing overheads are each measured against the same host.
// Service workloads run their stream through the public Decode in the
// pool's mode.
func (p *probe) public() {
	r := p.r
	pr := r
	if r.w.kind != kindDecode {
		w := *r.w
		w.kind, w.mode = kindDecode, p.mode
		pr = &runner{w: &w, s: r.s, set: r.set, ref: r.ref, rng: r.rng}
		defer r.absorb(pr)
	}
	tr := r.tr
	defer func() { pr.tr = tr }()
	var offT, spansT, traceT time.Duration
	var first []float64
	var last *mpeg2par.Stats
	var events, dropped int
	n := 0
	repeat(6*p.unit, func() {
		pr.tr = nil
		var lat []float64
		t0 := time.Now()
		_, last = pr.decodeOp(false, &lat)
		offT += time.Since(t0)
		if len(lat) > 0 {
			first = append(first, lat[0])
		}

		pr.tr = tr
		t0 = time.Now()
		pr.decodeOp(false, nil)
		spansT += time.Since(t0)

		pr.tr = nil
		rec := mpeg2par.NewTraceRecorder(0)
		t0 = time.Now()
		pr.decodeOp(false, nil, mpeg2par.WithTrace(rec))
		traceT += time.Since(t0)
		tl := rec.Snapshot()
		events, dropped = len(tl.Events), int(tl.Dropped)
		if n == 0 {
			p.waitShares(tl.Summary())
		}
		n++
	})
	pr.tr = tr
	out := p.out
	p.publicRate = p.pics * float64(n) / offT.Seconds()
	put1(out, "obs.harness_trace_overhead_share", share(float64(spansT-offT), float64(spansT)))
	put1(out, "obs.trace_overhead_share", share(float64(traceT-offT), float64(traceT)))
	put1(out, "obs.events_per_pic", float64(events+dropped)/p.pics)
	put1(out, "stream.pipeline_overhead_share", share(p.batchRate-p.publicRate, p.batchRate))
	put(out, "stream.first_frame_ms", first)
	put1(out, "stream.peak_inflight_kb", float64(last.PeakInFlightBytes)/1e3)
	put1(out, "stream.scan_lead_peak", float64(last.ScanLeadPeak))

	calls, el := repeat(p.unit, func() {
		pr.decodeSrc(mpeg2par.FromReader(chunkReader{bytes.NewReader(r.s.data), 4 << 10}), false, nil)
	})
	put1(out, "stream.reader_pics_per_s", p.pics*float64(calls)/el.Seconds())
}

// waitShares splits the workers' accounted time of a WithTrace run into
// queue wait (nothing ready) and barrier wait (a task existed but its
// references were not complete).
func (p *probe) waitShares(sum *obs.Summary) {
	var busy, queue, barrier time.Duration
	for _, w := range sum.PerWorker {
		busy += w.Busy
		queue += w.QueueWait
		barrier += w.BarrierWait
	}
	all := float64(busy + queue + barrier)
	put1(p.out, "core.queue_wait_share", share(float64(queue), all))
	put1(p.out, "core.barrier_wait_share", share(float64(barrier), all))
}

// scheduler times sched's packing and mode choice on the stream's own
// geometry and compares what ModeAuto picks with the best fixed mode.
func (p *probe) scheduler() {
	var geo sched.Geometry
	tasks := 0
	for gi := range p.m.GOPs {
		g := &p.m.GOPs[gi]
		geo.GOPs++
		geo.GOPBytes = append(geo.GOPBytes, int64(g.End-g.Offset))
		geo.TotalBytes += int64(g.End - g.Offset)
		for pi := range g.Pictures {
			costs := make([]int64, len(g.Pictures[pi].Slices))
			for si, sl := range g.Pictures[pi].Slices {
				costs[si] = int64(sl.Bytes)
			}
			geo.Pictures++
			geo.SliceBytes = append(geo.SliceBytes, costs)
			tasks += len(costs)
		}
	}
	calls, el := repeat(p.unit/4, func() {
		for _, c := range geo.SliceBytes {
			sched.LPT(c)
		}
	})
	put1(p.out, "sched.lpt_ns_per_task", float64(el)/float64(calls*tasks))
	calls, el = repeat(p.unit/4, func() { sched.Choose(geo, 2, nil) })
	put1(p.out, "sched.choose_us", float64(el)/1e3/float64(calls))

	// ModeAuto against every fixed mode at up to two workers, each
	// decoded once, in turn.
	rate := func(name string, opt core.Options) float64 {
		_, d, err := p.batch(name, p.r.s.data, p.m, opt)
		p.r.note(err == nil, "%s: %v", name, err)
		return p.pics / d.Seconds()
	}
	auto := rate("core.DecodeScanned auto", core.Options{Mode: core.ModeAuto, Workers: 2})
	best := 0.0
	for _, o := range []core.Options{
		{Mode: core.ModeSequential, Workers: 1},
		{Mode: core.ModeGOP, Workers: 2},
		{Mode: core.ModeSliceImproved, Workers: 2},
	} {
		best = math.Max(best, rate("core.DecodeScanned "+o.Mode.String(), o))
	}
	put1(p.out, "sched.auto_vs_best_ratio", ratio(auto, best))
}

// split measures the vldsplit layer on the one workload that uses it.
func (p *probe) split() error {
	r := p.r
	var ix *mpeg2par.Index
	var err error
	calls, el := repeat(p.unit, func() {
		sp := r.tr.begin("core.BuildIndexScanned", -1, 0, 0)
		ix, err = core.BuildIndexScanned(r.s.data, p.m)
		r.tr.end(sp)
	})
	if err != nil {
		return fmt.Errorf("index build: %w", err)
	}
	raw, err := ix.MarshalBinary()
	if err != nil {
		return fmt.Errorf("index marshal: %w", err)
	}
	out := p.out
	put1(out, "vldsplit.index_build_us_per_pic", float64(el)/1e3/float64(calls)/p.pics)
	// The index is keyed by slice content, so a tiled stream's repeated
	// slices share entries: bytes are per distinct picture.
	put1(out, "vldsplit.index_bytes_per_pic", float64(len(raw))/float64(r.w.enc.Pictures))
	put1(out, "vldsplit.points_per_slice", ratio(float64(ix.Points()), float64(ix.Slices())))

	// Indexed, un-indexed and speculative decodes in turn.
	noIndex := *r.s
	noIndex.index = nil
	plainRunner := &runner{w: r.w, s: &noIndex, set: r.set, ref: r.ref, rng: r.rng, tr: r.tr}
	var withT, withoutT time.Duration
	var st, spec *mpeg2par.Stats
	repeat(3*p.unit, func() {
		t0 := time.Now()
		_, st = r.decodeOp(false, nil)
		withT += time.Since(t0)
		t0 = time.Now()
		plainRunner.decodeOp(false, nil)
		withoutT += time.Since(t0)
	})
	_, spec = plainRunner.decodeOp(true, nil, mpeg2par.WithSpeculativeSplit(true))
	r.absorb(plainRunner)

	put1(out, "vldsplit.split_speedup", ratio(float64(withoutT), float64(withT)))
	put1(out, "vldsplit.segments_per_pic", float64(st.Split.SegmentsRun)/p.pics)
	put1(out, "vldsplit.verify_hit_share", share(float64(st.Split.VerifyHits), float64(st.Split.VerifyHits+st.Split.VerifyMisses)))
	put1(out, "vldsplit.fallbacks_per_kpic", 1000*float64(st.Split.Fallbacks)/p.pics)
	put1(out, "vldsplit.spec_hit_share", share(float64(spec.Split.VerifyHits), float64(spec.Split.VerifyHits+spec.Split.VerifyMisses)))
	return nil
}

// server runs one traced slice of a service workload against a Server
// with a timeline recorder attached, keeps every stream's StreamStats,
// and samples the ladder and the backlog while it runs.
func (p *probe) server() {
	r := p.r
	created := time.Now()
	rec := mpeg2par.NewTraceRecorder(1 << 16)
	cfg := mpeg2par.ServerConfig{Workers: r.w.workers, Trace: rec, DisableAutoDegrade: true}
	if r.w.kind == kindPaced {
		cfg = mpeg2par.ServerConfig{Workers: r.w.workers, Trace: rec, QueueDepth: pacedQueueDepth}
	}
	main := r.srv
	r.srv = mpeg2par.NewServer(cfg)
	defer func() {
		if err := r.srv.Close(); err != nil {
			r.note(false, "traced server close: %v", err)
		}
		r.srv = main
	}()
	r.warmUp() // calibrates this server's cost model

	maxRung, backlogPeak := 0, 0
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				maxRung = max(maxRung, r.srv.Rung())
				backlogPeak = max(backlogPeak, r.srv.Metrics().Backlog)
			}
		}
	}()
	before := r.srv.Metrics()
	r.keepStats, r.streamStats = true, nil
	sliceStart := time.Now()
	st := r.slice(4*r.sliceLen(), false)
	r.keepStats = false
	close(stop)
	wg.Wait()
	m := r.srv.Metrics()

	var admit, internal []float64
	shed, slackShed := 0, 0
	for _, ss := range r.streamStats {
		admit = append(admit, float64(ss.QueueWait)/1e6)
		for _, l := range ss.Latencies {
			internal = append(internal, float64(l)/1e6)
		}
		slackShed += ss.SlackShedPictures
		if ss.Stats != nil {
			shed += ss.Stats.Shed.Total()
		}
	}
	sort.Float64s(admit)
	sort.Float64s(internal)
	rates := st.perClient
	sort.Float64s(rates)
	sort.Float64s(st.genLate)
	streams := float64(len(r.streamStats))
	offered := float64(st.offered)
	out := p.out
	put1(out, "server.admit_wait_ms_p50", percentile(admit, 0.50))
	put1(out, "server.admit_wait_ms_p99", percentile(admit, 0.99))
	put1(out, "server.internal_latency_p50_ms", percentile(internal, 0.50))
	put1(out, "server.internal_latency_p99_ms", percentile(internal, 0.99))
	put1(out, "server.due_latency_p99_ms", st.latP99)
	put1(out, "server.gen_lateness_ms_p50", percentile(st.genLate, 0.50))
	put1(out, "server.gen_lateness_ms_p99", percentile(st.genLate, 0.99))
	put1(out, "server.deadline_miss_share", share(float64(st.overLimit), offered))
	put1(out, "server.rejected_share", share(float64(m.Rejected-before.Rejected), streams))
	put1(out, "server.shed_share", share(float64(shed), offered))
	put1(out, "server.slack_shed_share", share(float64(slackShed), offered))
	put1(out, "server.assists_per_kpic", 1000*ratio(float64(m.Assists-before.Assists), float64(st.pics)))
	put1(out, "server.max_rung", float64(maxRung))
	put1(out, "server.pauses", float64(m.Pauses-before.Pauses))
	put1(out, "server.wedged", float64(m.Wedged-before.Wedged))
	if len(rates) > 0 {
		put1(out, "server.fairness_ratio", ratio(rates[len(rates)-1], rates[0]))
	}
	put1(out, "server.backlog_peak", float64(backlogPeak))

	// Worker utilisation: task spans on the worker lanes over the slice.
	from := int64(sliceStart.Sub(created))
	var busy int64
	for _, e := range rec.Snapshot().Events {
		if e.Kind == obs.KindTask && e.Lane >= 0 && e.Start >= from {
			busy += e.Dur
		}
	}
	put1(out, "server.worker_util", share(float64(busy), float64(st.wall)*float64(r.w.workers)))

	// Set-up and teardown of one stream: a one-GOP stream through the
	// now idle server.
	short := append(append([]byte(nil), r.s.data[:p.m.GOPs[1].Offset]...), sequenceEnd...)
	var setup []float64
	for i := 0; i < 20; i++ {
		sp := r.tr.begin("Server.Decode one GOP", -1, 0, 0)
		t0 := time.Now()
		_, err := r.srv.Decode(context.Background(), mpeg2par.FromBytes(short))
		setup = append(setup, float64(time.Since(t0))/1e3)
		r.tr.end(sp)
		r.note(err == nil, "one-GOP stream: %v", err)
	}
	put(out, "server.stream_setup_us", setup)
}

// kernelTiers decodes sequentially under each kernel tier the host
// supports and restores the tier that was active.
func (p *probe) kernelTiers() error {
	active := kernels.Active()
	defer kernels.Set(active)
	for _, tier := range []struct {
		level kernels.Level
		name  string
	}{{kernels.LevelScalar, "scalar"}, {kernels.LevelSWAR, "swar"}, {kernels.LevelASM, "asm"}} {
		if tier.level > kernels.Supported() {
			continue // stays 0: the host has no such tier
		}
		kernels.Set(tier.level)
		var err error
		calls, el := repeat(p.unit, func() {
			_, _, err = p.batch("core.DecodeScanned "+tier.name, p.r.s.data, p.m,
				core.Options{Mode: core.ModeSequential, Workers: 1})
		})
		if err != nil {
			return fmt.Errorf("kernel tier %s: %w", tier.name, err)
		}
		put1(p.out, "kernels.seq_pics_per_s."+tier.name, p.pics*float64(calls)/el.Seconds())
	}
	return nil
}

// guards are the workload-validity checks: the traced pass fails the run
// when a workload no longer measures what it is named for.
func guards(w *workload, out map[string]spread) []string {
	v := func(name string) float64 { return out[name].Median }
	var bad []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, w.name+": "+fmt.Sprintf(format, args...))
		}
	}
	switch w.name {
	case "seq-intra-sif":
		check(v("mpeg2.vld_share") >= 0.45, "mpeg2.vld_share %.3f < 0.45: no longer VLD-bound", v("mpeg2.vld_share"))
		check(v("motion.pred_mbs_per_pic") == 0, "motion.pred_mbs_per_pic %.1f != 0: motion compensation does work", v("motion.pred_mbs_per_pic"))
	case "seq-ipb-sd":
		check(v("mpeg2.vld_share") <= 0.45, "mpeg2.vld_share %.3f > 0.45: no longer reconstruction-bound", v("mpeg2.vld_share"))
	case "split-tall-sif-w2":
		check(v("vldsplit.verify_hit_share") == 1, "vldsplit.verify_hit_share %.3f != 1", v("vldsplit.verify_hit_share"))
		check(v("vldsplit.fallbacks_per_kpic") == 0, "vldsplit.fallbacks_per_kpic %.1f != 0", v("vldsplit.fallbacks_per_kpic"))
	case "svc-saturate":
		check(v("server.max_rung") == 0, "server.max_rung %.0f != 0: the ladder moved", v("server.max_rung"))
		check(v("server.rejected_share") == 0, "server.rejected_share %.3f != 0", v("server.rejected_share"))
	case "svc-paced":
		check(v("server.gen_lateness_ms_p50") < 4, "server.gen_lateness_ms_p50 %.2f ms >= 4: the generator ran late", v("server.gen_lateness_ms_p50"))
	}
	return bad
}
