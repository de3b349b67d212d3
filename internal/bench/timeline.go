package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mpeg2par/internal/core"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/obs"
)

// TimelineRun decodes one reference stream with the event tracer
// attached and reports the derived load-balance and synchronization
// figures — the live-measurement counterpart of the simulator's
// Figures 5–7 (utilization, imbalance, sync overhead).

// TimelineConfig describes a traced decode.
type TimelineConfig struct {
	Width, Height int    // picture size (default 352x240)
	GOPSize       int    // pictures per GOP (default 13)
	Pictures      int    // stream length (default 3 GOPs)
	Mode          string // "gop", "slice-simple", "slice-improved", "sequential" (default slice-improved)
	Workers       int    // default 4
	TraceOut      string // optional: write Chrome trace JSON here
}

func (c TimelineConfig) withDefaults() TimelineConfig {
	if c.Width == 0 {
		c.Width, c.Height = 352, 240
	}
	if c.GOPSize == 0 {
		c.GOPSize = 13
	}
	if c.Pictures == 0 {
		c.Pictures = 3 * c.GOPSize
	}
	if c.Mode == "" {
		c.Mode = "slice-improved"
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	return c
}

func parseMode(s string) (core.Mode, error) {
	switch s {
	case "gop":
		return core.ModeGOP, nil
	case "slice", "slice-simple":
		return core.ModeSliceSimple, nil
	case "slice-improved":
		return core.ModeSliceImproved, nil
	case "seq", "sequential":
		return core.ModeSequential, nil
	case "auto":
		return core.ModeAuto, nil
	}
	return 0, fmt.Errorf("bench: unknown mode %q", s)
}

// TimelineResult is one traced decode: the raw timeline, its derived
// summary, and the decode stats it must stay consistent with.
type TimelineResult struct {
	Summary  *obs.Summary  `json:"summary"`
	Stats    *core.Stats   `json:"stats"`
	Timeline *obs.Timeline `json:"-"`
}

// TimelineRun encodes the reference stream, decodes it with tracing
// enabled, and derives the report. When cfg.TraceOut is set the raw
// timeline is also exported as Chrome trace JSON (Perfetto-loadable),
// validated before the file is kept.
func TimelineRun(cfg TimelineConfig) (*TimelineResult, error) {
	cfg = cfg.withDefaults()
	enc, err := encoder.EncodeSequence(encoder.Config{
		Width:     cfg.Width,
		Height:    cfg.Height,
		Pictures:  cfg.Pictures,
		GOPSize:   cfg.GOPSize,
		BitRate:   5_000_000,
		FrameRate: 30,
	}, frame.NewSynth(cfg.Width, cfg.Height))
	if err != nil {
		return nil, fmt.Errorf("bench: timeline stream: %w", err)
	}
	mode, err := parseMode(cfg.Mode)
	if err != nil {
		return nil, err
	}
	rec := obs.New(0)
	st, err := core.Decode(enc.Data, core.Options{
		Mode:    mode,
		Workers: cfg.Workers,
		Obs:     rec,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: timeline decode: %w", err)
	}
	tl := rec.Snapshot()
	res := &TimelineResult{Summary: tl.Summary(), Stats: st, Timeline: tl}
	if cfg.TraceOut != "" {
		f, err := os.Create(cfg.TraceOut)
		if err != nil {
			return nil, err
		}
		if err := tl.WriteChromeTrace(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("bench: write trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("bench: write trace: %w", err)
		}
	}
	return res, nil
}

// WriteText renders the report for a terminal.
func (r *TimelineResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "traced decode: %d pictures in %v (%.0f pics/s)\n",
		r.Stats.Pictures, r.Stats.Wall, r.Stats.PicturesPerSecond())
	r.Summary.WriteText(w)
	// The event stream times a blocked take; whether the worker slept in
	// it (and paid a wake-up) or polled is the executor's own count.
	fmt.Fprintf(w, "  parks (sleeps inside those waits), by worker:")
	for _, ws := range r.Stats.WorkerStats {
		fmt.Fprintf(w, " %d", ws.Parks)
	}
	fmt.Fprintln(w)
}

// WriteJSON emits the structured report.
func (r *TimelineResult) WriteJSON(w io.Writer) error {
	e := json.NewEncoder(w)
	e.SetIndent("", "  ")
	return e.Encode(r)
}
