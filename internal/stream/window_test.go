package stream_test

import (
	"fmt"
	"math"
	"testing"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/core"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/faults"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/mpeg2"
)

// scrollSource is a smooth texture sliding down the picture by speed
// lines per frame: low spatial frequency, so the encoder's diamond search
// walks all the way to the true displacement and codes vertical vectors
// as long as its f_code allows.
type scrollSource struct {
	w, h, speed int
	interlaced  bool
}

func (s scrollSource) Frame(n int) *frame.Frame {
	f := frame.New(s.w, s.h)
	at := func(x, y, t float64) uint8 {
		y -= t * float64(s.speed)
		return uint8(128 + 70*math.Sin(2*math.Pi*y/160) + 25*math.Sin(2*math.Pi*(x/37+y/61)))
	}
	for y := 0; y < s.h; y++ {
		t := float64(n)
		if s.interlaced && y&1 == 1 {
			t += 0.5 // the bottom field is sampled half a frame later
		}
		for x := 0; x < s.w; x++ {
			f.Y[y*f.YStride+x] = at(float64(x), float64(y), t)
		}
	}
	for y := 0; y < s.h/2; y++ {
		for x := 0; x < s.w/2; x++ {
			f.Cb[y*f.CStride+x] = at(float64(2*x), float64(2*y), float64(n))/2 + 64
			f.Cr[y*f.CStride+x] = 192 - f.Cb[y*f.CStride+x]/2
		}
	}
	return f
}

// vectorReach parses every slice of a clean stream and returns the
// longest vertical vector component coded (half-pels for frame vectors,
// half field lines for field vectors), the f_code limit it is coded
// under, and how many macroblocks use field prediction.
func vectorReach(t *testing.T, data []byte) (longest, limit, fieldMBs int) {
	t.Helper()
	m, err := core.Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	for _, gop := range m.GOPs {
		for _, pr := range gop.Pictures {
			r := bits.NewReader(data[:pr.End])
			r.SeekBit(int64(pr.Offset+4) * 8)
			hdr, err := mpeg2.ParsePictureHeader(r)
			if err != nil {
				t.Fatal(err)
			}
			params := decoder.PictureParams(&m.Seq, &hdr)
			if fc := hdr.FCode[0][1]; fc >= 1 && fc <= 9 {
				limit = max(limit, mpeg2.MVRangeHalf(fc)-1)
			}
			for _, sr := range pr.Slices {
				sl := bits.NewReader(data[:sr.End])
				sl.SeekBit(int64(sr.Offset) * 8)
				code, err := sl.ReadStartCode()
				if err != nil {
					t.Fatal(err)
				}
				ds, err := mpeg2.DecodeSliceInto(sl, &params, int(code)-1, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ds.MBs {
					mb := &ds.MBs[i]
					longest = max(longest, abs(mb.MVFwd.Y), abs(mb.MVBwd.Y))
					if mb.FieldMotion {
						fieldMBs++
						longest = max(longest, abs(mb.MVFwd2.Y), abs(mb.MVBwd2.Y))
					}
				}
			}
		}
	}
	return longest, limit, fieldMBs
}

// TestRowWindowGolden is the bit-exactness contract of the slice queue's
// row-window readiness rule on the streams built to break it: vertical
// vectors at the f_code limit (every dependent task really reads the
// outermost row of its window), interlaced field motion (the window
// doubles) and tall slices (a task spans several rows). The improved
// slice mode at 1/2/3/4/8 workers (the plan's task grain depends on the
// pool size: three, two and one row a task here), under all four
// resilience policies, on the clean stream and on two damaged ones, fed
// from the scanned map and through a reader, must deliver every frame
// equal to the sequential mode's — or fail wherever it fails — and the
// sequential mode, on the clean stream under FailFast, every frame of
// decoder.Decoder. Run under -race this also proves no task reads a
// reference row another task is still writing.
func TestRowWindowGolden(t *testing.T) {
	const w, h = 48, 192
	streams := []struct {
		name string
		cfg  encoder.Config
		src  encoder.Source
	}{
		{"fcode-limit", encoder.Config{}, scrollSource{w: w, h: h, speed: 10}},
		{"field-motion", encoder.Config{Interlaced: true}, scrollSource{w: w, h: h, speed: 10, interlaced: true}},
		{"tall-slices", encoder.Config{RowsPerSlice: 3}, scrollSource{w: w, h: h, speed: 10}},
	}
	for _, s := range streams {
		cfg := s.cfg
		cfg.Width, cfg.Height, cfg.Pictures, cfg.GOPSize = w, h, 14, 7
		cfg.RepeatSequenceHeader = true
		res, err := encoder.EncodeSequence(cfg, s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		clean := res.Data
		longest, limit, fieldMBs := vectorReach(t, clean)
		if longest < limit*9/10 {
			t.Fatalf("%s: longest vertical vector %d of a limit of %d; the stream does not reach its window's edge",
				s.name, longest, limit)
		}
		if cfg.Interlaced && fieldMBs == 0 {
			t.Fatalf("%s: no macroblock uses field prediction", s.name)
		}

		damaged := false
		inputs := [][]byte{clean}
		for _, spec := range []string{"burst:count=2,len=24", "dropslice:3"} {
			sp, err := faults.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			mut, _ := sp.Apply(clean, 3)
			inputs = append(inputs, mut)
		}
		for di, data := range inputs {
			for _, policy := range allPolicies {
				var want collectSink
				wantSt, wantErr := core.Decode(data, core.Options{
					Mode: core.ModeSequential, Workers: 1, Resilience: policy, Sink: want.add,
				})
				damaged = damaged || (wantErr == nil && wantSt.Errors.Any())
				if di == 0 && policy == core.FailFast {
					oracle, oracleSt := oracleRef(t, data)
					sameDecode(t, s.name+": sequential mode against decoder.Decoder", &want, wantSt, wantErr, oracle, oracleSt, nil)
				}
				for _, workers := range []int{1, 2, 3, 4, 8} {
					opt := core.Options{Mode: core.ModeSliceImproved, Workers: workers, Resilience: policy}
					for _, chunk := range []int{wholeMap, 4096} {
						var got collectSink
						opt.Sink = got.add
						st, err := decodeFed(data, opt, chunk)
						id := func() string {
							return fmt.Sprintf("%s input %d %v chunk %d w%d", s.name, di, policy, chunk, workers)
						}
						if (err != nil) != (wantErr != nil) {
							t.Fatalf("%s: err=%v, sequential err=%v", id(), err, wantErr)
						}
						if wantErr != nil {
							continue
						}
						if st.Errors != wantSt.Errors {
							t.Fatalf("%s: error stats %+v, sequential %+v", id(), st.Errors, wantSt.Errors)
						}
						if len(got.frames) != len(want.frames) {
							t.Fatalf("%s: %d frames, sequential %d", id(), len(got.frames), len(want.frames))
						}
						for i := range want.frames {
							if !got.frames[i].Equal(want.frames[i]) {
								t.Fatalf("%s: frame %d differs from the sequential decoder", id(), i)
							}
						}
					}
				}
			}
		}
		if !damaged {
			t.Fatalf("%s: no damaged input decoded with recovered damage; the faulted half exercised nothing", s.name)
		}
	}
}
