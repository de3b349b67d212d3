// Package bench contains the experiment drivers that regenerate every
// table and figure of the paper's evaluation (§5). Each experiment
// returns structured results and renders the same rows/series the paper
// reports; cmd/mpeg2bench and the repository-level benchmarks are thin
// wrappers around this package.
//
// Scale: the paper's streams are 1120 pictures long. Encoding and
// profiling that much video for every configuration is wasteful, so the
// runner profiles real per-task costs on a shorter stream (whole GOPs of
// the same shape) and tiles the measured costs out to the paper's stream
// length before simulating — GOP contents are statistically uniform, so
// tiling preserves the cost distribution. Wall-clock decode measurements
// (scan rate, pictures/second at one worker) always come from real runs.
package bench

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/memtrace"
	"mpeg2par/internal/simsched"
)

// Resolution is one of the paper's four test picture sizes.
type Resolution struct {
	W, H int
}

// Name renders "352x240".
func (r Resolution) Name() string { return fmt.Sprintf("%dx%d", r.W, r.H) }

// Slices returns the slices per picture (one per macroblock row).
func (r Resolution) Slices() int { return (r.H + 15) / 16 }

// FrameBytes returns the decoded 4:2:0 picture size.
func (r Resolution) FrameBytes() int64 {
	cw, ch := int64(frame.Coded(r.W)), int64(frame.Coded(r.H))
	return cw*ch + cw*ch/2
}

// The paper's test resolutions (Table 1).
var (
	Res176  = Resolution{176, 120}
	Res352  = Resolution{352, 240}
	Res704  = Resolution{704, 480}
	Res1408 = Resolution{1408, 960}
)

// GOPSizes are the paper's pictures-per-GOP values.
var GOPSizes = []int{4, 13, 16, 31}

// Config scales the experiment suite.
type Config struct {
	// Resolutions to sweep (default: the paper's four).
	Resolutions []Resolution
	// ProfileGOPs is how many GOPs to actually encode+decode per
	// configuration before tiling (default 2).
	ProfileGOPs int
	// StreamPictures is the stream length the simulations are scaled to
	// (default 1120, the paper's).
	StreamPictures int
	// MaxWorkers for worker sweeps (default 14, the paper's).
	MaxWorkers int
	// BitRate passed to the encoder (default: 5 Mb/s, 7 Mb/s for the
	// largest size, like the paper).
	BitRate func(Resolution) int
}

func (c Config) withDefaults() Config {
	if len(c.Resolutions) == 0 {
		c.Resolutions = []Resolution{Res176, Res352, Res704, Res1408}
	}
	if c.ProfileGOPs == 0 {
		c.ProfileGOPs = 2
	}
	if c.StreamPictures == 0 {
		c.StreamPictures = 1120
	}
	if c.MaxWorkers == 0 {
		c.MaxWorkers = 14
	}
	if c.BitRate == nil {
		c.BitRate = func(r Resolution) int {
			if r.W >= 1408 {
				return 7_000_000
			}
			return 5_000_000
		}
	}
	return c
}

// SmallConfig is a fast configuration for tests: the three smaller
// resolutions, short profile streams (the simulations are still scaled to
// the paper's 1120-picture stream length by tiling).
func SmallConfig() Config {
	return Config{
		Resolutions: []Resolution{Res176, Res352, Res704},
		ProfileGOPs: 2,
		MaxWorkers:  14,
	}
}

// localityRes picks the single resolution the locality study runs at
// (the paper presents one configuration): 352×240 when available.
func (r *Runner) localityRes() Resolution {
	for _, res := range r.cfg.Resolutions {
		if res == Res352 {
			return res
		}
	}
	return r.cfg.Resolutions[0]
}

// Runner caches generated streams and profiles across experiments.
type Runner struct {
	cfg Config

	mu      sync.Mutex
	streams map[streamKey]*encoder.Result
	maps    map[streamKey]*core.StreamMap
	profs   map[streamKey]taskProfile
	traces  map[traceKey][]memtrace.Event
}

// taskProfile is a stream's measured task costs in both decompositions,
// tiled to the configured stream length.
type taskProfile struct {
	gop []simsched.GOPTask
	slc []simsched.SimPicture
}

type streamKey struct {
	res Resolution
	gop int
}

// NewRunner returns a Runner for the configuration.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		cfg:     cfg.withDefaults(),
		streams: make(map[streamKey]*encoder.Result),
		maps:    make(map[streamKey]*core.StreamMap),
		profs:   make(map[streamKey]taskProfile),
	}
}

// Stream returns (generating on first use) the profile stream for a
// resolution and GOP size.
func (r *Runner) Stream(res Resolution, gop int) (*encoder.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.streamLocked(res, gop)
}

func (r *Runner) streamLocked(res Resolution, gop int) (*encoder.Result, error) {
	key := streamKey{res, gop}
	if s, ok := r.streams[key]; ok {
		return s, nil
	}
	cfg := encoder.Config{
		Width:                res.W,
		Height:               res.H,
		Pictures:             r.cfg.ProfileGOPs * gop,
		GOPSize:              gop,
		BitRate:              r.cfg.BitRate(res),
		FrameRate:            30,
		RepeatSequenceHeader: true,
	}
	s, err := encoder.EncodeSequence(cfg, frame.NewSynth(res.W, res.H))
	if err != nil {
		return nil, fmt.Errorf("bench: generating %s gop=%d: %w", res.Name(), gop, err)
	}
	r.streams[key] = s
	return s, nil
}

// Map returns the scan result for a stream.
func (r *Runner) Map(res Resolution, gop int) (*core.StreamMap, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := streamKey{res, gop}
	if m, ok := r.maps[key]; ok {
		return m, nil
	}
	s, err := r.streamLocked(res, gop)
	if err != nil {
		return nil, err
	}
	m, err := core.Scan(s.Data)
	if err != nil {
		return nil, err
	}
	r.maps[key] = m
	return m, nil
}

// GOPTasks returns measured GOP task costs tiled to the configured stream
// length.
func (r *Runner) GOPTasks(res Resolution, gop int) ([]simsched.GOPTask, error) {
	p, err := r.profile(res, gop)
	return p.gop, err
}

// SlicePics returns measured per-slice costs tiled to the configured
// stream length.
func (r *Runner) SlicePics(res Resolution, gop int) ([]simsched.SimPicture, error) {
	p, err := r.profile(res, gop)
	return p.slc, err
}

// profile returns (measuring on first use) both task profiles of a
// resolution's stream.
func (r *Runner) profile(res Resolution, gop int) (taskProfile, error) {
	r.mu.Lock()
	key := streamKey{res, gop}
	if p, ok := r.profs[key]; ok {
		r.mu.Unlock()
		return p, nil
	}
	s, err := r.streamLocked(res, gop)
	r.mu.Unlock()
	if err != nil {
		return taskProfile{}, err
	}
	m, err := r.Map(res, gop)
	if err != nil {
		return taskProfile{}, err
	}
	gt, sp, err := profileTasks(s.Data, m)
	if err != nil {
		return taskProfile{}, err
	}
	p := taskProfile{
		gop: tileGOPs(gt, (r.cfg.StreamPictures+gop-1)/gop),
		slc: tileSlices(sp, r.cfg.StreamPictures),
	}
	r.mu.Lock()
	r.profs[key] = p
	r.mu.Unlock()
	return p, nil
}

// profilePasses is how many times a stream is decoded to profile its task
// costs. A cost is the median over the passes of an interval of at most a
// slice — the slice profile's tasks, and in the GOP profile the same
// slices decoded in GOP mode plus what a group spends outside them: the
// simulated tables compare the two profiles, and the host is shared, so
// what must not decide an ordering is one slow pass, one lucky one (a
// minimum), or the time a worker spends descheduled, which most passes of
// an interval of a picture contain on a loaded host and few of one of a
// slice do. The first pass also warms code and data paths.
const profilePasses = 5

// medianCost returns the median of cost(0) … cost(profilePasses-1).
func medianCost(cost func(pass int) time.Duration) time.Duration {
	var c [profilePasses]time.Duration
	for i := range c {
		c[i] = cost(i)
	}
	slices.Sort(c[:])
	return c[profilePasses/2]
}

// profileTasks measures a stream's GOP task costs and its improved-slice
// task costs at one worker, in one run that alternates a GOP-mode pass with
// a slice-mode pass, so that a load that comes and goes on a shared host
// weighs on both profiles alike. A one-worker plan hands tasks out in
// stream order, so the cold-cache cost of each picture's first task lands
// on the same slice in every run — the simulator assumes stream-order
// measurement.
func profileTasks(data []byte, m *core.StreamMap) ([]simsched.GOPTask, []simsched.SimPicture, error) {
	var gp, sp [profilePasses]*core.Stats
	for i := range gp {
		var err error
		if gp[i], err = core.Decode(data, core.Options{Mode: core.ModeGOP, Workers: 1, Profile: true}); err != nil {
			return nil, nil, err
		}
		if sp[i], err = core.Decode(data, core.Options{Mode: core.ModeSliceImproved, Workers: 1, Profile: true}); err != nil {
			return nil, nil, err
		}
	}
	return gopCosts(&gp, m), sliceCosts(&sp), nil
}

// gopCosts puts each GOP task's cost together from its slices, as GOP mode
// decoded them, and what the task spent outside them, each the median over
// the passes (see profilePasses). A GOP-mode profile lists its pictures'
// slice costs in decode order, group after group.
func gopCosts(passes *[profilePasses]*core.Stats, m *core.StreamMap) []simsched.GOPTask {
	tasks := make([]simsched.GOPTask, len(passes[0].GOPCosts))
	first := 0 // the group's first picture in SliceProf
	for g := range tasks {
		pics := passes[0].SliceProf[first : first+len(m.GOPs[g].Pictures)]
		cost := medianCost(func(pass int) time.Duration {
			rest := passes[pass].GOPCosts[g].Cost
			for _, p := range passes[pass].SliceProf[first : first+len(pics)] {
				for _, c := range p.SliceCosts {
					rest -= c
				}
			}
			return rest
		})
		for i, p := range pics {
			for j := range p.SliceCosts {
				cost += medianCost(func(pass int) time.Duration { return passes[pass].SliceProf[first+i].SliceCosts[j] })
			}
		}
		tasks[g] = simsched.GOPTask{Cost: cost, Pictures: len(pics)}
		first += len(pics)
	}
	return tasks
}

// sliceCosts takes each slice-queue task's cost as its median over the
// passes.
func sliceCosts(passes *[profilePasses]*core.Stats) []simsched.SimPicture {
	measured := make([]simsched.SimPicture, len(passes[0].SliceProf))
	for i, p := range passes[0].SliceProf {
		costs := make([]time.Duration, len(p.SliceCosts))
		for j := range costs {
			costs[j] = medianCost(func(pass int) time.Duration { return passes[pass].SliceProf[i].SliceCosts[j] })
		}
		measured[i] = simsched.SimPicture{Ref: p.Ref, Intra: p.Type == 'I', DisplayIdx: p.DisplayIdx, SliceCosts: costs}
	}
	return measured
}

// tileGOPs repeats measured GOP costs out to n tasks.
func tileGOPs(measured []simsched.GOPTask, n int) []simsched.GOPTask {
	out := make([]simsched.GOPTask, n)
	for i := range out {
		out[i] = measured[i%len(measured)]
	}
	return out
}

// tileSlices repeats the measured per-picture profile block out to the
// requested stream length, shifting display indices so every copy of the
// block displays after the previous one.
func tileSlices(measured []simsched.SimPicture, pictures int) []simsched.SimPicture {
	block := len(measured)
	span := 0
	for _, p := range measured {
		if p.DisplayIdx+1 > span {
			span = p.DisplayIdx + 1
		}
	}
	out := make([]simsched.SimPicture, pictures)
	for k := range out {
		src := measured[k%block]
		p := src
		p.DisplayIdx = (k/block)*span + src.DisplayIdx
		out[k] = p
	}
	return out
}

// table writes an aligned text table.
func table(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	printRow(header)
	for _, row := range rows {
		printRow(row)
	}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// Thin aliases keeping experiment code terse.
var (
	Scan      = core.Scan
	SimGOP    = simsched.SimulateGOP
	SimSlices = simsched.SimulateSlices
)
