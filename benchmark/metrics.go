package main

// metricDef is one metric the benchmark reports. BENCHMARK.json is this
// table written out (go run ./benchmark -describe); the smoke test holds
// the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// The end-to-end metrics: what a user of the decoder sees. Every
// workload reports every one, and none is ever zero (the shares the
// issue listed — failed operations and deadline misses, both zero on a
// healthy run — are the result's attempted/failed counts and the
// per-layer server.deadline_miss_share). A bound is two to three times
// the widest spread seen between ten runs on the build host (README.md),
// because the driver refuses a benchmark whose spread reaches its bound.
var endToEndDefs = []metricDef{
	{"pics_per_s", "pics/s", "higher", 0.15},
	{"frame_latency_p50_ms", "ms", "lower", 0.20},
	{"frame_latency_p90_ms", "ms", "lower", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// The per-layer metrics, from the traced pass. Layer names are the
// module names. README.md says which end-to-end metric each should move
// and on which workload.
var perLayerDefs = []metricDef{
	{"bits.startcode_mb_per_s", "MB/s", "higher", 0},
	{"bits.startcodes_per_pic", "count", "lower", 0},

	{"mpeg2.vld_us_per_pic", "us", "lower", 0},
	{"mpeg2.vld_us_per_pic.i", "us", "lower", 0},
	{"mpeg2.vld_us_per_pic.p", "us", "lower", 0},
	{"mpeg2.vld_us_per_pic.b", "us", "lower", 0},
	{"mpeg2.vld_ns_per_bit", "ns", "lower", 0},
	{"mpeg2.vld_share", "share", "lower", 0},
	{"mpeg2.header_us_per_pic", "us", "lower", 0},
	{"mpeg2.mbs_per_pic", "count", "lower", 0},
	{"mpeg2.coded_bits_per_pic", "count", "lower", 0},

	{"dct.idct_us_per_pic", "us", "lower", 0},
	{"dct.idct_ns_per_block", "ns", "lower", 0},
	{"dct.idct_share", "share", "lower", 0},
	{"dct.coded_blocks_per_pic", "count", "lower", 0},
	{"quant.coefs_per_pic", "count", "lower", 0},

	{"motion.mc_us_per_pic", "us", "lower", 0},
	{"motion.mc_ns_per_mb", "ns", "lower", 0},
	{"motion.mc_share", "share", "lower", 0},
	{"motion.pred_mbs_per_pic", "count", "lower", 0},
	{"motion.bidir_mbs_per_pic", "count", "lower", 0},

	{"decoder.recon_us_per_pic", "us", "lower", 0},
	{"decoder.recon_us_per_pic.i", "us", "lower", 0},
	{"decoder.recon_us_per_pic.p", "us", "lower", 0},
	{"decoder.recon_us_per_pic.b", "us", "lower", 0},
	{"decoder.recon_share", "share", "lower", 0},
	{"decoder.store_us_per_pic", "us", "lower", 0},
	{"decoder.seq_pics_per_s", "pics/s", "higher", 0},
	{"decoder.allocs_per_pic", "count", "lower", 0},

	{"frame.pool_getput_ns", "ns", "lower", 0},
	{"frame.peak_frame_mb", "MB", "lower", 0},
	{"frame.frames_allocated", "count", "lower", 0},

	{"core.scan_us_per_pic", "us", "lower", 0},
	{"core.batch_pics_per_s", "pics/s", "higher", 0},
	{"core.speedup_vs_seq", "ratio", "higher", 0},
	{"core.parallel_efficiency", "share", "higher", 0},
	{"core.worker_busy_share", "share", "higher", 0},
	{"core.worker_wait_share", "share", "lower", 0},
	{"core.load_imbalance", "ratio", "lower", 0},
	{"core.queue_wait_share", "share", "lower", 0},
	{"core.barrier_wait_share", "share", "lower", 0},
	{"core.tasks_per_pic", "count", "lower", 0},
	{"core.cpu_us_per_pic", "us", "lower", 0},
	{"core.resilient_pics_per_s", "pics/s", "higher", 0},
	{"core.resilient_overhead_share", "share", "lower", 0},
	{"core.faulted_pics_per_s", "pics/s", "higher", 0},
	{"core.concealed_mbs_per_pic", "count", "lower", 0},
	{"core.sim_speedup_pred", "ratio", "higher", 0},
	{"core.sim_pred_error", "share", "lower", 0},

	{"stream.scan_us_per_pic", "us", "lower", 0},
	{"stream.pipeline_overhead_share", "share", "lower", 0},
	{"stream.reader_pics_per_s", "pics/s", "higher", 0},
	{"stream.first_frame_ms", "ms", "lower", 0},
	{"stream.peak_inflight_kb", "KB", "lower", 0},
	{"stream.scan_lead_peak", "count", "lower", 0},

	{"sched.lpt_ns_per_task", "ns", "lower", 0},
	{"sched.choose_us", "us", "lower", 0},
	{"sched.cost_pred_err_p50", "ratio", "lower", 0},
	{"sched.cost_pred_err_p90", "ratio", "lower", 0},
	{"sched.auto_vs_best_ratio", "ratio", "higher", 0},

	{"vldsplit.index_build_us_per_pic", "us", "lower", 0},
	{"vldsplit.index_bytes_per_pic", "count", "lower", 0},
	{"vldsplit.points_per_slice", "count", "higher", 0},
	{"vldsplit.segments_per_pic", "count", "higher", 0},
	{"vldsplit.verify_hit_share", "share", "higher", 0},
	{"vldsplit.fallbacks_per_kpic", "count", "lower", 0},
	{"vldsplit.split_speedup", "ratio", "higher", 0},
	{"vldsplit.spec_hit_share", "share", "higher", 0},

	{"server.admit_wait_ms_p50", "ms", "lower", 0},
	{"server.admit_wait_ms_p99", "ms", "lower", 0},
	{"server.internal_latency_p50_ms", "ms", "lower", 0},
	{"server.internal_latency_p99_ms", "ms", "lower", 0},
	{"server.due_latency_p99_ms", "ms", "lower", 0},
	{"server.gen_lateness_ms_p50", "ms", "lower", 0},
	{"server.gen_lateness_ms_p99", "ms", "lower", 0},
	{"server.deadline_miss_share", "share", "lower", 0},
	{"server.rejected_share", "share", "lower", 0},
	{"server.shed_share", "share", "lower", 0},
	{"server.slack_shed_share", "share", "lower", 0},
	{"server.assists_per_kpic", "count", "higher", 0},
	{"server.max_rung", "count", "lower", 0},
	{"server.pauses", "count", "lower", 0},
	{"server.wedged", "count", "lower", 0},
	{"server.fairness_ratio", "ratio", "lower", 0},
	{"server.worker_util", "share", "higher", 0},
	{"server.backlog_peak", "count", "lower", 0},
	{"server.stream_setup_us", "us", "lower", 0},

	{"kernels.seq_pics_per_s.scalar", "pics/s", "higher", 0},
	{"kernels.seq_pics_per_s.swar", "pics/s", "higher", 0},
	{"kernels.seq_pics_per_s.asm", "pics/s", "higher", 0},

	{"obs.trace_overhead_share", "share", "lower", 0},
	{"obs.harness_trace_overhead_share", "share", "lower", 0},
	{"obs.events_per_pic", "count", "lower", 0},

	{"host.ref_passes_per_s.n1", "1/s", "higher", 0},
	{"host.ref_passes_per_s.n2", "1/s", "higher", 0},
	{"host.raw_pics_per_s", "pics/s", "higher", 0},
	{"host.drift_share", "share", "lower", 0},
	{"encoder.setup_pics_per_s", "pics/s", "higher", 0},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEndDefs {
		m[d.name] = d.unit
	}
	for _, d := range perLayerDefs {
		m[d.name] = d.unit
	}
	return m
}()

func unitOf(name string) string { return units[name] }

// workloadWhy is the one line BENCHMARK.json gives each workload.
var workloadWhy = map[string]string{
	"seq-intra-sif":     "all-I 352x240 at 8 Mb/s, one thread: VLD and IDCT do the work, motion compensation and core scheduling none",
	"seq-ipb-sd":        "704x480 IBBP at 4 Mb/s, one thread: motion compensation and store dominate; the baseline the parallel workloads divide by",
	"slice-ipb-sd-w2":   "same bytes, improved slice mode on 2 workers: core's slice queue, barrier rule, affinity and LPT packing are on the critical path",
	"gop-ipb-sd-w2":     "same bytes, GOP mode on 2 workers: coarse tasks, little synchronisation, several times the frame memory",
	"split-tall-sif-w2": "one slice per picture with a split index, 2 workers: the only workload where vldsplit does work",
	"svc-saturate":      "closed loop, 4 clients resubmitting a small stream to one Server: admission, session set-up and dispatch dominate",
	"svc-paced":         "open loop, seeded arrivals at half capacity with pacing and a 33 ms frame deadline: queueing and EDF/slack behaviour",
}

// benchmarkJSON mirrors BENCHMARK.json's keys exactly.
type benchmarkJSON struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

const runSeconds = 10

func describeBenchmark() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, map[string]any{"name": w.name, "why": workloadWhy[w.name]})
	}
	for _, d := range endToEndDefs {
		b.EndToEnd = append(b.EndToEnd, map[string]any{"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound})
	}
	for _, d := range perLayerDefs {
		b.PerLayer = append(b.PerLayer, map[string]any{"name": d.name, "unit": d.unit, "better": d.better})
	}
	return b
}
