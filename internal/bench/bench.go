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

	mu       sync.Mutex
	streams  map[streamKey]*encoder.Result
	maps     map[streamKey]*core.StreamMap
	gopProf  map[streamKey][]simsched.GOPTask
	slcProf  map[streamKey][]simsched.SimPicture
	baseline map[streamKey]time.Duration // 1-worker decode time of profile stream
	traces   map[traceKey][]memtrace.Event
}

type streamKey struct {
	res Resolution
	gop int
}

// NewRunner returns a Runner for the configuration.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		cfg:      cfg.withDefaults(),
		streams:  make(map[streamKey]*encoder.Result),
		maps:     make(map[streamKey]*core.StreamMap),
		gopProf:  make(map[streamKey][]simsched.GOPTask),
		slcProf:  make(map[streamKey][]simsched.SimPicture),
		baseline: make(map[streamKey]time.Duration),
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
	r.mu.Lock()
	key := streamKey{res, gop}
	if t, ok := r.gopProf[key]; ok {
		r.mu.Unlock()
		return t, nil
	}
	s, err := r.streamLocked(res, gop)
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	m, err := r.Map(res, gop)
	if err != nil {
		return nil, err
	}
	measured, wall, err := profileGOPTasks(s.Data, m)
	if err != nil {
		return nil, err
	}
	tiled := tileGOPs(measured, (r.cfg.StreamPictures+gop-1)/gop)
	r.mu.Lock()
	r.gopProf[key] = tiled
	r.baseline[key] = wall
	r.mu.Unlock()
	return tiled, nil
}

// SlicePics returns measured per-slice costs tiled to the configured
// stream length.
func (r *Runner) SlicePics(res Resolution, gop int) ([]simsched.SimPicture, error) {
	r.mu.Lock()
	key := streamKey{res, gop}
	if p, ok := r.slcProf[key]; ok {
		r.mu.Unlock()
		return p, nil
	}
	s, err := r.streamLocked(res, gop)
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	tiled, err := profileSlicePics(s.Data, r.cfg.StreamPictures)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.slcProf[key] = tiled
	r.mu.Unlock()
	return tiled, nil
}

// profilePasses is how many times a stream is decoded to profile its task
// costs. A cost is the median over the passes of an interval of at most a
// picture — a slice in the slice profile, a picture (and the task's
// remainder) in the GOP profile: the simulated tables compare the two
// profiles, and the host is shared, so what must not decide an ordering is
// one slow pass, one lucky one (a minimum), or the time a worker spends
// descheduled, which every pass of an interval of milliseconds contains
// and few passes of one of microseconds do. The first pass also warms code
// and data paths.
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

// profileGOPTasks measures per-GOP decode costs at one worker, and the
// wall time of the first such decode. A one-worker plan hands tasks out in
// stream order, so the cold-cache cost of each picture's first task lands
// on the same slice in every run — the simulator assumes stream-order
// measurement. A task's cost is put together picture by picture, plus what
// the task spends outside pictures, not taken as one interval (see
// profilePasses).
func profileGOPTasks(data []byte, m *core.StreamMap) ([]simsched.GOPTask, time.Duration, error) {
	var passes [profilePasses]*core.Stats
	for i := range passes {
		var err error
		if passes[i], err = core.Decode(data, core.Options{Mode: core.ModeGOP, Workers: 1, Profile: true}); err != nil {
			return nil, 0, err
		}
	}
	tasks := make([]simsched.GOPTask, len(passes[0].GOPCosts))
	for i := range tasks {
		cost := medianCost(func(pass int) time.Duration {
			c := passes[pass].GOPCosts[i]
			rest := c.Cost
			for _, p := range c.Pictures {
				rest -= p
			}
			return rest
		})
		for p := range passes[0].GOPCosts[i].Pictures {
			cost += medianCost(func(pass int) time.Duration { return passes[pass].GOPCosts[i].Pictures[p] })
		}
		tasks[i] = simsched.GOPTask{Cost: cost, Pictures: len(m.GOPs[i].Pictures)}
	}
	return tasks, passes[0].Wall, nil
}

// profileSlicePics measures per-slice costs and tiles them out to the
// requested stream length.
func profileSlicePics(data []byte, pictures int) ([]simsched.SimPicture, error) {
	measured, _, err := profileSliceTasks(data, core.Options{})
	if err != nil {
		return nil, err
	}
	return tileSlices(measured, pictures), nil
}

// profileSliceTasks measures the per-task costs of an improved-slice-mode
// decode on one worker (the per-task median of profilePasses passes) under
// opt's split settings, and returns the last pass's stats beside them.
func profileSliceTasks(data []byte, opt core.Options) ([]simsched.SimPicture, *core.Stats, error) {
	opt.Mode, opt.Workers, opt.Profile = core.ModeSliceImproved, 1, true
	var passes [profilePasses]*core.Stats
	for i := range passes {
		var err error
		if passes[i], err = core.Decode(data, opt); err != nil {
			return nil, nil, err
		}
	}
	measured := make([]simsched.SimPicture, len(passes[0].SliceProf))
	for i, p := range passes[0].SliceProf {
		costs := make([]time.Duration, len(p.SliceCosts))
		for j := range costs {
			costs[j] = medianCost(func(pass int) time.Duration { return passes[pass].SliceProf[i].SliceCosts[j] })
		}
		measured[i] = simsched.SimPicture{Ref: p.Ref, Intra: p.Type == 'I', DisplayIdx: p.DisplayIdx, SliceCosts: costs}
	}
	return measured, passes[profilePasses-1], nil
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
