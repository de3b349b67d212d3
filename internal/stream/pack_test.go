package stream_test

import (
	"bytes"
	"context"
	"testing"

	"mpeg2par/internal/core"
	"mpeg2par/internal/stream"
)

// TestStreamingPackingMatchesBatch extends the ordering-invariance
// contract to the pipelined path: every packing discipline, streamed
// chunk by chunk on every pool size (which sets the plan's task grain),
// must reproduce the batch sequential reference bit-exactly. The
// plan-path pack seed is keyed by plan index, so the streaming and batch
// decodes shuffle identically.
func TestStreamingPackingMatchesBatch(t *testing.T) {
	for _, dim := range [][2]int{{96, 64}, {48, 192}} {
		streamingPackingMatchesBatch(t, testStream(t, dim[0], dim[1], 12, 4))
	}
}

func streamingPackingMatchesBatch(t *testing.T, data []byte) {
	var refSink collectSink
	_, refErr := core.Decode(data, core.Options{
		Mode: core.ModeSequential, Workers: 1, Sink: refSink.add,
	})
	if refErr != nil {
		t.Fatal(refErr)
	}
	packings := []struct {
		name    string
		packing core.Packing
		seed    int64
	}{
		{"lpt", core.PackLPT, 0},
		{"reverse", core.PackReverse, 0},
		{"random-5", core.PackRandom, 5},
	}
	for _, mode := range []core.Mode{core.ModeGOP, core.ModeSliceImproved} {
		for _, workers := range []int{1, 2, 3, 4, 8} {
			for _, pk := range packings {
				var sink collectSink
				st, err := stream.Decode(context.Background(), bytes.NewReader(data), stream.Options{
					Options: core.Options{
						Mode: mode, Workers: workers, Sink: sink.add,
						Packing: pk.packing, PackSeed: pk.seed,
					},
					ChunkSize: 997,
				})
				if err != nil {
					t.Fatalf("%v/%d/%s: %v", mode, workers, pk.name, err)
				}
				if len(sink.frames) != len(refSink.frames) {
					t.Fatalf("%v/%d/%s: %d frames, batch %d", mode, workers, pk.name, len(sink.frames), len(refSink.frames))
				}
				for i := range refSink.frames {
					if !sink.frames[i].Equal(refSink.frames[i]) {
						t.Fatalf("%v/%d/%s: frame %d differs from batch sequential", mode, workers, pk.name, i)
					}
				}
				if st.LeakedFrameBytes != 0 {
					t.Fatalf("%v/%d/%s: leaked %d frame bytes", mode, workers, pk.name, st.LeakedFrameBytes)
				}
			}
		}
	}
}

// TestStreamingAutoTune checks ModeAuto on the pipelined path: the mode
// resolves at the first fed group, the decode matches the sequential
// reference bit-exactly, and Stats.Auto reports the decision and the
// online tuner's outcome.
func TestStreamingAutoTune(t *testing.T) {
	data := testStream(t, 96, 64, 24, 4)
	var refSink collectSink
	_, err := core.Decode(data, core.Options{
		Mode: core.ModeSequential, Workers: 1, Sink: refSink.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		var sink collectSink
		st, err := stream.Decode(context.Background(), bytes.NewReader(data), stream.Options{
			Options:   core.Options{Mode: core.ModeAuto, Workers: workers, Sink: sink.add},
			ChunkSize: 997,
		})
		if err != nil {
			t.Fatalf("auto/%d: %v", workers, err)
		}
		if st.Auto == nil {
			t.Fatalf("auto/%d: Stats.Auto not reported", workers)
		}
		if st.Mode == core.ModeAuto {
			t.Fatalf("auto/%d: Stats.Mode still ModeAuto, want the resolved mode", workers)
		}
		if st.Auto.Workers < 1 || st.Auto.Workers > workers {
			t.Fatalf("auto/%d: chose %d workers outside [1,%d]", workers, st.Auto.Workers, workers)
		}
		if st.Auto.FinalWorkerLimit < 1 || st.Auto.FinalWorkerLimit > st.Auto.Workers {
			t.Fatalf("auto/%d: final worker limit %d outside [1,%d]",
				workers, st.Auto.FinalWorkerLimit, st.Auto.Workers)
		}
		if len(sink.frames) != len(refSink.frames) {
			t.Fatalf("auto/%d: %d frames, batch %d", workers, len(sink.frames), len(refSink.frames))
		}
		for i := range refSink.frames {
			if !sink.frames[i].Equal(refSink.frames[i]) {
				t.Fatalf("auto/%d: frame %d differs from batch sequential", workers, i)
			}
		}
	}
}

// TestScanReaderSliceBytes pins the incremental scanner's Bytes field:
// identical to the batch scan (covered structurally by the DeepEqual
// tests) and self-consistent with each slice's offset span at every
// chunk size, including single-byte reads that straddle every startcode.
func TestScanReaderSliceBytes(t *testing.T) {
	data := testStream(t, 48, 32, 4, 2)
	for _, chunk := range []int{1, 7, 4096} {
		m, err := stream.ScanReader(bytes.NewReader(data), chunk, false)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		checked := 0
		for g := range m.GOPs {
			for pi := range m.GOPs[g].Pictures {
				for si, s := range m.GOPs[g].Pictures[pi].Slices {
					if s.Bytes != s.End-s.Offset || s.Bytes <= 0 {
						t.Fatalf("chunk %d: GOP %d pic %d slice %d: Bytes=%d, span=%d",
							chunk, g, pi, si, s.Bytes, s.End-s.Offset)
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatalf("chunk %d: no slices checked", chunk)
		}
	}
}
