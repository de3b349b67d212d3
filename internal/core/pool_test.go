package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"mpeg2par/internal/frame"
	"mpeg2par/internal/obs"
)

// decodeUnits decodes data on DecodeUnits' pool as DecodeScanned does, but
// under ctx.
func decodeUnits(ctx context.Context, data []byte, opt Options) (*Stats, error) {
	m, err := ScanLenient(data)
	if err != nil {
		return nil, err
	}
	return DecodeUnits(ctx, opt, func(_ *Session, feed func(Unit) error) error {
		for g := range m.GOPs {
			if err := feed(Unit{G: g, Data: data, Range: m.GOPs[g], Seq: m.Seq}); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestCancelAtEveryPicture: a decode cancelled from its sink at picture k,
// for every k of a three-group stream and in every mode, returns the
// context's error — also once every group has been fed, and once the last
// picture has been delivered — delivers nothing after the cancel, and
// leaves no frame bytes and no goroutines behind.
func TestCancelAtEveryPicture(t *testing.T) {
	const pics = 12
	data := testStream(t, 64, 48, pics, 4).Data
	for _, mode := range everyMode {
		for k := 1; k <= pics; k++ {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			shown := 0
			st, err := decodeUnits(ctx, data, Options{Mode: mode, Workers: 2, Resilience: ConcealSlice,
				Sink: func(*frame.Frame) {
					if shown++; shown == k {
						cancel()
					}
				}})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v, cancelled at picture %d: err %v, want context.Canceled", mode, k, err)
			}
			if shown != k || st.LeakedFrameBytes != 0 {
				t.Fatalf("%v, cancelled at picture %d: %d pictures delivered, %d frame bytes leaked", mode, k, shown, st.LeakedFrameBytes)
			}
			waitGoroutines(t, base, mode.String())
		}
	}
}

// TestGOPDecodeHelpsTail: GOP-mode Decode runs on the pool the service
// runs, so once every group has been handed out, a worker with nothing left
// to pick helps the groups still running: here the stream's last and longest
// group, which an idle worker decodes part of while another runs it. The
// frames are the sequential decode's, and no frame bytes leak.
func TestGOPDecodeHelpsTail(t *testing.T) {
	short := testStream(t, 176, 144, 8, 4).Data
	long := testStream(t, 176, 144, 24, 24).Data
	data := append(bytes.TrimSuffix(bytes.Clone(short), []byte{0, 0, 1, 0xB7}), long...)
	var want collectSink
	if _, err := Decode(data, Options{Mode: ModeSequential, Workers: 1, Sink: want.add}); err != nil {
		t.Fatal(err)
	}
	helped := false
	for run := 0; run < 5 && !helped; run++ {
		tr := obs.New(0)
		var got collectSink
		st, err := Decode(data, Options{Mode: ModeGOP, Workers: 2, Sink: got.add, Obs: tr})
		if err != nil || st.LeakedFrameBytes != 0 {
			t.Fatalf("run %d: err %v, %d frame bytes leaked", run, err, st.LeakedFrameBytes)
		}
		if len(got.frames) != len(want.frames) {
			t.Fatalf("run %d: %d frames, want %d", run, len(got.frames), len(want.frames))
		}
		for i := range want.frames {
			if !got.frames[i].Equal(want.frames[i]) {
				t.Fatalf("run %d: frame %d differs from the sequential decode", run, i)
			}
		}
		// The owner's span covers its group (no picture); a helper's names
		// the picture it decoded a unit of.
		owner, units := -1, map[int]int{}
		for _, e := range tr.Snapshot().Events {
			if e.Kind == obs.KindTask && e.GOP == 2 {
				if e.Pic < 0 {
					owner = e.Lane
				} else {
					units[e.Lane]++
				}
			}
		}
		helped = owner >= 0 && units[1-owner] > 0
	}
	if !helped {
		t.Fatal("in 5 runs no idle worker helped the last group")
	}
}
