package mpeg2par_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"mpeg2par"
	"mpeg2par/internal/faults"
	"mpeg2par/internal/frame"
)

// groupBudget is what one more group of pictures may cost a decode in
// allocations beyond its frames: its scan and plan records, its task and
// the display's bookkeeping — not its bytes.
const groupBudget = 32 << 10

// tiled repeats a stream of one closed group, under its own sequence
// header, n times over.
func tiled(data []byte, n int) []byte {
	end := []byte{0, 0, 1, 0xB7}
	body := bytes.TrimSuffix(data, end)
	out := make([]byte, 0, len(body)*n+len(end))
	for i := 0; i < n; i++ {
		out = append(out, body...)
	}
	return append(out, end...)
}

// TestFromBytesReadInPlace is the FromBytes contract: Decode in every mode
// and Server.Decode read the caller's bytes where they lie. They leave
// them as they were, and they copy none of them: a stream of the same
// group sixteen times over costs no more allocation than the group alone,
// plus frames and groupBudget for each group more — a copy of the stream
// is sixteen times the group's bytes. On a clean stream under FailFast and
// on a damaged one under ConcealSlice.
func TestFromBytesReadInPlace(t *testing.T) {
	// Fine quantisation: a group of 123 KB, several times what it costs
	// to plan.
	st, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{Width: 352, Height: 240, Pictures: 6, GOPSize: 6,
		IPDistance: 3, QScaleI: 1, QScaleP: 1, QScaleB: 1, RepeatSequenceHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	clean := st.Data
	damaged := concealableGroup(t, clean)

	// What the heap pays for a frame: its planes as the allocator rounds them.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f := frame.New(352, 240)
	runtime.ReadMemStats(&m1)
	frameCost, frameBytes := int64(m1.TotalAlloc-m0.TotalAlloc), int64(f.Bytes())

	srv := mpeg2par.NewServer(mpeg2par.ServerConfig{Workers: 2})
	defer srv.Close()
	// The first stream sizes the workers' decode scratch.
	if _, err := srv.Decode(context.Background(), mpeg2par.FromBytes(clean)); err != nil {
		t.Fatal(err)
	}
	type way struct {
		name   string
		decode func(src mpeg2par.Source, r mpeg2par.Resilience) (*mpeg2par.Stats, error)
	}
	var ways []way
	for _, m := range []mpeg2par.Mode{mpeg2par.ModeSequential, mpeg2par.ModeGOP, mpeg2par.ModeSliceSimple,
		mpeg2par.ModeSliceImproved, mpeg2par.ModeAuto} {
		ways = append(ways, way{m.String(), func(src mpeg2par.Source, r mpeg2par.Resilience) (*mpeg2par.Stats, error) {
			return mpeg2par.Decode(context.Background(), src, mpeg2par.WithMode(m), mpeg2par.WithWorkers(2),
				mpeg2par.WithResilience(r))
		}})
	}
	ways = append(ways, way{"server", func(src mpeg2par.Source, r mpeg2par.Resilience) (*mpeg2par.Stats, error) {
		ss, err := srv.Decode(context.Background(), src, mpeg2par.WithStreamResilience(r))
		return ss.Stats, err
	}})

	for _, in := range []struct {
		name   string
		data   []byte
		policy mpeg2par.Resilience
	}{{"clean", clean, mpeg2par.FailFast}, {"damaged", damaged, mpeg2par.ConcealSlice}} {
		for _, w := range ways {
			label := fmt.Sprintf("%s %s", in.name, w.name)
			var extra [2]int64
			for i, n := range []int{1, 16} {
				data := tiled(in.data, n)
				keep := bytes.Clone(data)
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				st, err := w.decode(mpeg2par.FromBytes(data), in.policy)
				runtime.ReadMemStats(&ms)
				if err != nil {
					t.Fatalf("%s x%d: %v", label, n, err)
				}
				if !bytes.Equal(data, keep) {
					t.Fatalf("%s x%d: the decode wrote into the caller's bytes", label, n)
				}
				extra[i] = int64(ms.TotalAlloc-before) - st.FramesAllocated/frameBytes*frameCost
			}
			t.Logf("%s: %d bytes allocated beyond frames for one group, %d for sixteen (a group is %d bytes)",
				label, extra[0], extra[1], len(in.data))
			if d := extra[1] - extra[0]; d > 15*groupBudget {
				t.Errorf("%s: fifteen groups more cost %d bytes beyond frames, more than %d a group (a group is %d bytes)",
					label, d, groupBudget, len(in.data))
			}
		}
	}
}

// concealableGroup damages data so that ConcealSlice gets through it only
// by concealing macroblocks.
func concealableGroup(t *testing.T, data []byte) []byte {
	t.Helper()
	for _, spec := range []string{"burst:count=2,len=24", "bitflip:8"} {
		sp, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 8; seed++ {
			mut, _ := sp.Apply(data, seed)
			st, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(mut),
				mpeg2par.WithMode(mpeg2par.ModeSequential), mpeg2par.WithResilience(mpeg2par.ConcealSlice))
			if err == nil && st.Concealed > 0 {
				return mut
			}
		}
	}
	t.Fatal("no fault spec produced damage that ConcealSlice conceals")
	return nil
}
