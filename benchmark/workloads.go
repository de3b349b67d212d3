package main

import (
	"mpeg2par"
)

type workloadKind int

const (
	kindDecode   workloadKind = iota // closed loop, one client, public Decode
	kindSaturate                     // closed loop, 4 clients, one Server
	kindPaced                        // open loop, seeded arrivals, one Server
)

// workload is one set of inputs and the way they are offered. The
// program under test receives only the encoded bytes.
type workload struct {
	name string
	kind workloadKind

	// enc is the short stream encoded at set-up; tile repeats its closed
	// GOPs so one operation is long enough that pipeline start-up is not
	// what is measured.
	enc  mpeg2par.StreamConfig
	tile int

	mode    mpeg2par.Mode
	workers int  // Decode workers, or the Server's pool size
	indexed bool // WithIndex(BuildIndex(stream))
}

// refGoroutines is how many goroutines the reference loop runs on around
// this workload's slices: as many as the slice keeps busy.
func (w *workload) refGoroutines() int {
	if w.kind == kindDecode && w.mode == mpeg2par.ModeSequential {
		return 1
	}
	return w.workers
}

// pictures is the length of one operation's stream.
func (w *workload) pictures() int { return w.enc.Pictures * w.tile }

// The seven workloads. BENCHMARK.json carries the same names with one
// line each on why; README.md has a paragraph each.
var workloads = []*workload{
	{
		name: "seq-intra-sif", kind: kindDecode,
		enc: mpeg2par.StreamConfig{Width: 352, Height: 240, Pictures: 26, GOPSize: 1,
			BitRate: 8_000_000, RepeatSequenceHeader: true},
		tile: 15, mode: mpeg2par.ModeSequential, workers: 1,
	},
	{
		name: "seq-ipb-sd", kind: kindDecode,
		enc: sdConfig, tile: sdTile, mode: mpeg2par.ModeSequential, workers: 1,
	},
	{
		name: "slice-ipb-sd-w2", kind: kindDecode,
		enc: sdConfig, tile: sdTile, mode: mpeg2par.ModeSliceImproved, workers: 2,
	},
	{
		name: "gop-ipb-sd-w2", kind: kindDecode,
		enc: sdConfig, tile: sdTile, mode: mpeg2par.ModeGOP, workers: 2,
	},
	{
		name: "split-tall-sif-w2", kind: kindDecode,
		enc: mpeg2par.StreamConfig{Width: 352, Height: 240, Pictures: 39, GOPSize: 13, IPDistance: 3,
			RowsPerSlice: 15, RepeatSequenceHeader: true},
		tile: 10, mode: mpeg2par.ModeSliceImproved, workers: 2, indexed: true,
	},
	{
		name: "svc-saturate", kind: kindSaturate,
		enc: mpeg2par.StreamConfig{Width: 176, Height: 120, Pictures: 26, GOPSize: 13, IPDistance: 3,
			RepeatSequenceHeader: true},
		tile: 1, workers: 2,
	},
	{
		name: "svc-paced", kind: kindPaced,
		enc: mpeg2par.StreamConfig{Width: 352, Height: 240, Pictures: 39, GOPSize: 13, IPDistance: 3,
			RepeatSequenceHeader: true},
		tile: 1, workers: 2,
	},
}

// The three SD workloads decode the same bytes, so that the two parallel
// ones can be divided by the sequential one.
var sdConfig = mpeg2par.StreamConfig{Width: 704, Height: 480, Pictures: 26, GOPSize: 13, IPDistance: 3,
	BitRate: 4_000_000, RepeatSequenceHeader: true}

const sdTile = 15

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
