package stream_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"mpeg2par/internal/core"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/stream"
	"mpeg2par/internal/vldsplit"
)

// TestStreamingPackingMatchesBatch extends the ordering-invariance
// contract to every feeding: the scheduler's packing on every pool size
// (which sets the plan's task grain), fed from the whole map and chunk by
// chunk, must reproduce the independent oracle bit-exactly with the same
// split accounting either way. The third stream is one tall slice a
// picture decoded with its split index: segment tasks are packed too, 4·workers
// of them a picture (its 36 macroblocks are below core.TaskGrain's floor for
// a segment).
// Other handout orders are swapped in by core's own invariance tests.
func TestStreamingPackingMatchesBatch(t *testing.T) {
	for _, dim := range [][2]int{{96, 64}, {48, 192}} {
		streamingPackingMatchesBatch(t, testStream(t, dim[0], dim[1], 12, 4), nil)
	}
	tall, err := encoder.EncodeSequence(encoder.Config{
		Width: 48, Height: 192, Pictures: 12, GOPSize: 4, RepeatSequenceHeader: true, RowsPerSlice: 12,
	}, frame.NewSynth(48, 192))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndexScanned(tall.Data, mustBatchScan(t, tall.Data, false))
	if err != nil || ix.Slices() == 0 {
		t.Fatalf("index of %d slices, error %v", ix.Slices(), err)
	}
	streamingPackingMatchesBatch(t, tall.Data, ix)
}

func streamingPackingMatchesBatch(t *testing.T, data []byte, ix *vldsplit.Index) {
	ref, refSt := oracleRef(t, data)
	for _, mode := range []core.Mode{core.ModeGOP, core.ModeSliceImproved} {
		for _, workers := range []int{1, 2, 3, 4, 8} {
			var split core.SplitStats
			for _, chunk := range []int{wholeMap, 997} {
				label := fmt.Sprintf("%v/%d chunk %d", mode, workers, chunk)
				var sink collectSink
				st, err := decodeFed(data, core.Options{
					Mode: mode, Workers: workers, Sink: sink.add, SplitIndex: ix, SplitParts: 4 * workers,
				}, chunk)
				sameDecode(t, label, &sink, st, err, ref, refSt, nil)
				if ix != nil && mode == core.ModeSliceImproved && st.Split.VerifyHits == 0 {
					t.Fatalf("%s: no slice split: %+v", label, st.Split)
				}
				if chunk == wholeMap {
					split = st.Split
				} else if st.Split != split {
					t.Fatalf("%s: split stats %+v, fed from the whole map %+v", label, st.Split, split)
				}
			}
		}
	}
}

// TestStreamingAutoTune checks ModeAuto on the pipelined path: the mode
// resolves at the first fed group, the decode matches the independent
// oracle bit-exactly, and Stats.Auto reports the decision.
func TestStreamingAutoTune(t *testing.T) {
	data := testStream(t, 96, 64, 24, 4)
	refSink := collectSink{frames: oracleFrames(t, data)}
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
		if len(sink.frames) != len(refSink.frames) {
			t.Fatalf("auto/%d: %d frames, the oracle %d", workers, len(sink.frames), len(refSink.frames))
		}
		for i := range refSink.frames {
			if !sink.frames[i].Equal(refSink.frames[i]) {
				t.Fatalf("auto/%d: frame %d differs from decoder.Decoder", workers, i)
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

// TestProfileThroughReader: Options.Profile is the engine's, not a feeding's
// — a reader-fed decode returns the tables a scanned-map decode does, one
// GOPCosts entry per group in GOP mode, one SliceProf entry per picture with
// a cost per slice.
func TestProfileThroughReader(t *testing.T) {
	data := testStream(t, 96, 64, 12, 4)
	for _, chunk := range []int{wholeMap, 997} {
		st, err := decodeFed(data, core.Options{Mode: core.ModeGOP, Workers: 2, Profile: true}, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.GOPCosts) != 3 {
			t.Fatalf("chunk %d: %d GOP costs, want 3", chunk, len(st.GOPCosts))
		}
		for g, c := range st.GOPCosts {
			if c.Cost <= 0 || c.Work.MBs != 4*6*4 {
				t.Fatalf("chunk %d: GOP %d profiled as %+v", chunk, g, c)
			}
		}
		if len(st.SliceProf) != 12 {
			t.Fatalf("chunk %d: GOP mode: %d picture profiles, want 12", chunk, len(st.SliceProf))
		}
		st, err = decodeFed(data, core.Options{Mode: core.ModeSliceImproved, Workers: 2, Profile: true}, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.SliceProf) != 12 {
			t.Fatalf("chunk %d: %d picture profiles, want 12", chunk, len(st.SliceProf))
		}
		for i, p := range st.SliceProf {
			if len(p.SliceCosts) != 4 || slices.Min(p.SliceCosts) <= 0 {
				t.Fatalf("chunk %d: picture %d slice costs %v, want four measured", chunk, i, p.SliceCosts)
			}
		}
	}
}
