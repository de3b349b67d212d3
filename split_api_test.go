package mpeg2par_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"mpeg2par"
	"mpeg2par/internal/core"
)

// tallStream generates a one-slice-per-picture stream: the geometry
// where slice-level parallelism is zero and intra-slice splitting is
// the only parallelism left. Its slices are 132 macroblocks, enough for
// two segments of core.TaskGrain's split grain.
func tallStream(t testing.TB) *mpeg2par.Stream {
	t.Helper()
	s, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{
		Width: 352, Height: 96, Pictures: 8, GOPSize: 4,
		RowsPerSlice: 6, // 96/16 rows -> one slice per picture
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

type frameCollector struct {
	mu     sync.Mutex
	frames []*mpeg2par.Frame
}

func (c *frameCollector) add(f *mpeg2par.Frame) {
	c.mu.Lock()
	c.frames = append(c.frames, f.Clone())
	c.mu.Unlock()
}

// TestWithIndexStreaming pins the public surface end to end: BuildIndex
// over a Source, WithIndex through the streaming pipeline, split
// counters in Stats.Split, and bit-exact frames vs the sequential path.
func TestWithIndexStreaming(t *testing.T) {
	ctx := context.Background()
	s := tallStream(t)

	var ref frameCollector
	if _, err := mpeg2par.Decode(ctx, mpeg2par.FromBytes(s.Data),
		mpeg2par.WithMode(mpeg2par.ModeSequential), mpeg2par.WithWorkers(1),
		mpeg2par.WithFrameSink(ref.add)); err != nil {
		t.Fatal(err)
	}

	idx, err := mpeg2par.BuildIndex(ctx, mpeg2par.FromBytes(s.Data))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Slices() == 0 {
		t.Fatal("BuildIndex covered no slices on a tall-slice stream")
	}

	// Binary round trip through the public aliases.
	raw, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded := mpeg2par.NewIndex()
	if err := loaded.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if loaded.Slices() != idx.Slices() || loaded.Points() != idx.Points() {
		t.Fatalf("round trip lost entries: %d/%d vs %d/%d",
			loaded.Slices(), loaded.Points(), idx.Slices(), idx.Points())
	}

	var got frameCollector
	st, err := mpeg2par.Decode(ctx, mpeg2par.FromBytes(s.Data),
		mpeg2par.WithMode(mpeg2par.ModeSliceImproved),
		mpeg2par.WithWorkers(3),
		mpeg2par.WithIndex(loaded),
		mpeg2par.WithFrameSink(got.add))
	if err != nil {
		t.Fatal(err)
	}
	if st.Split.SlicesSplit == 0 {
		t.Fatalf("streaming decode split nothing: %+v", st.Split)
	}
	if st.Split.VerifyMisses != 0 {
		t.Fatalf("exact index missed verification: %+v", st.Split)
	}
	if len(got.frames) != len(ref.frames) {
		t.Fatalf("%d frames, want %d", len(got.frames), len(ref.frames))
	}
	for i := range ref.frames {
		if !ref.frames[i].Equal(got.frames[i]) {
			t.Fatalf("frame %d differs from sequential decode", i)
		}
	}
}

// TestWithSpeculativeSplitStreaming: speculation through the public
// streaming pipeline never changes the output.
func TestWithSpeculativeSplitStreaming(t *testing.T) {
	ctx := context.Background()
	s := tallStream(t)
	var ref frameCollector
	if _, err := mpeg2par.Decode(ctx, mpeg2par.FromBytes(s.Data),
		mpeg2par.WithMode(mpeg2par.ModeSequential), mpeg2par.WithWorkers(1),
		mpeg2par.WithFrameSink(ref.add)); err != nil {
		t.Fatal(err)
	}
	var got frameCollector
	st, err := mpeg2par.Decode(ctx, mpeg2par.FromBytes(s.Data),
		mpeg2par.WithMode(mpeg2par.ModeSliceImproved),
		mpeg2par.WithWorkers(3),
		mpeg2par.WithSpeculativeSplit(true),
		mpeg2par.WithFrameSink(got.add))
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors.Any() {
		t.Fatalf("clean stream reported damage under speculation: %+v", st.Errors)
	}
	if len(got.frames) != len(ref.frames) {
		t.Fatalf("%d frames, want %d", len(got.frames), len(ref.frames))
	}
	for i := range ref.frames {
		if !ref.frames[i].Equal(got.frames[i]) {
			t.Fatalf("frame %d differs under speculation", i)
		}
	}
}

// TestErrBadOptionPublic: the sentinel is reachable and matchable from
// the public API.
func TestErrBadOptionPublic(t *testing.T) {
	s := tallStream(t)
	_, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(s.Data), mpeg2par.WithMode(mpeg2par.Mode(99)))
	if !errors.Is(err, mpeg2par.ErrBadOption) {
		t.Fatalf("unknown mode: err %v, want ErrBadOption", err)
	}
}

// TestWithIndexDefaultGrain: the streaming pipeline cuts a tall slice at
// the split grain of its pool (core.TaskGrain) — a SIF picture's one slice
// on one, two and four workers — and the frames stay the sequential
// decode's.
func TestWithIndexDefaultGrain(t *testing.T) {
	ctx := context.Background()
	s, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{
		Width: 352, Height: 240, Pictures: 13, GOPSize: 13, IPDistance: 3, RowsPerSlice: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ref frameCollector
	if _, err := mpeg2par.Decode(ctx, mpeg2par.FromBytes(s.Data),
		mpeg2par.WithMode(mpeg2par.ModeSequential), mpeg2par.WithWorkers(1),
		mpeg2par.WithFrameSink(ref.add)); err != nil {
		t.Fatal(err)
	}
	idx, err := mpeg2par.BuildIndex(ctx, mpeg2par.FromBytes(s.Data))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		grain := core.TaskGrain(22, 15, workers, true)
		segs := (15 + grain - 1) / grain
		var got frameCollector
		st, err := mpeg2par.Decode(ctx, mpeg2par.FromBytes(s.Data),
			mpeg2par.WithMode(mpeg2par.ModeSliceImproved), mpeg2par.WithWorkers(workers),
			mpeg2par.WithIndex(idx), mpeg2par.WithFrameSink(got.add))
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		n := len(ref.frames)
		if st.Split.SlicesSplit != n || st.Split.SegmentsRun != segs*n || st.Split.VerifyHits != n {
			t.Fatalf("%d workers: split %+v, want %d slices of %d segments, all verified", workers, st.Split, n, segs)
		}
		if len(got.frames) != n {
			t.Fatalf("%d workers: %d frames, want %d", workers, len(got.frames), n)
		}
		for i := range ref.frames {
			if !ref.frames[i].Equal(got.frames[i]) {
				t.Fatalf("%d workers: frame %d differs from sequential decode", workers, i)
			}
		}
	}
}
