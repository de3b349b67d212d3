package decoder

import (
	"runtime"
	"sync"
	"testing"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/dct"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/kernels"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/quant"
)

// needReconBlock skips tb unless this host runs dct.ReconBlock, and leaves
// the dispatch at LevelSWAR until tb ends, so that dct.Inverse in
// reconBlockRef is the scalar transform.
func needReconBlock(tb testing.TB) {
	tb.Helper()
	if runtime.GOARCH != "amd64" || kernels.Supported() != kernels.LevelASM {
		tb.Skipf("no coded-block kernel on this host (%s/%s)", runtime.GOARCH, kernels.CPUFeatures())
	}
	prev := kernels.Active()
	tb.Cleanup(func() { kernels.Set(prev) })
	kernels.Set(kernels.LevelSWAR)
}

// reconBlockRef is the chain dct.ReconBlock replaces — quant.InverseMasked,
// the scalar dct.Inverse, clampPixelRef — writing the block at plane[o:]
// with rs bytes between rows, over the prediction there when add is set.
func reconBlockRef(plane []uint8, o, rs int, qf *[64]int32, p quant.Params, add bool) {
	blk := *qf
	quant.InverseMasked(&blk, p, quant.Mask(&blk, 64))
	dct.Inverse(&blk)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			px := &plane[o+r*rs+c]
			if add {
				*px = clampPixelRef(int32(*px) + blk[r*8+c])
			} else {
				*px = clampPixelRef(blk[r*8+c])
			}
		}
	}
}

// blockCase is one call of the kernel: quantized levels, dequantization
// parameters, frame or field row step, and the prediction under a
// predicted block (a fill byte, or -1 for noise).
type blockCase struct {
	qf       [64]int32
	p        quant.Params
	fieldDCT bool
	pred     int
}

// checkReconBlock runs c through dct.ReconBlock and reconBlockRef on two
// copies of a 32×24 plane (the block at (8, 4); under field DCT its rows
// are two apart) and reports the first byte that differs anywhere in the
// plane, or qf changed by the kernel.
func checkReconBlock(tb testing.TB, c *blockCase, rng *storeRNG) {
	tb.Helper()
	const stride, o = 32, 4*32 + 8
	rs := stride
	if c.fieldDCT {
		rs = 2 * stride
	}
	want := make([]uint8, stride*24)
	for i := range want {
		switch {
		case !c.p.Intra && c.pred >= 0:
			want[i] = uint8(c.pred)
		default:
			want[i] = uint8(rng.next())
		}
	}
	got := append([]uint8(nil), want...)
	add := !c.p.Intra
	reconBlockRef(want, o, rs, &c.qf, c.p, add)

	var dq dct.Dequant
	var dcMult int32
	if c.p.Intra {
		dcMult = quant.IntraDCMult(c.p.DCPrecision)
	}
	dq.Set(c.p.Matrix, c.p.Scale, dcMult)
	qf := c.qf
	dct.ReconBlock(&got[o], rs, &qf, &dq, add)
	if qf != c.qf {
		tb.Fatalf("ReconBlock wrote the quantized block (scale %d intra %v)", c.p.Scale, c.p.Intra)
	}
	for i := range want {
		if got[i] != want[i] {
			tb.Fatalf("scale %d intra %v dcprec %d field %v pred %d: byte (%d,%d) = %d, want %d\nqf %v",
				c.p.Scale, c.p.Intra, c.p.DCPrecision, c.fieldDCT, c.pred, (i-o)%stride, (i-o)/stride, got[i], want[i], c.qf)
		}
	}
}

// level draws a quantized level: mostly small, sometimes up to the
// 12-bit extremes ±2047.
func (p *storeRNG) level() int32 {
	switch p.next() % 8 {
	case 0:
		return int32(p.next()%4095) - 2047
	case 1:
		return 2047 - 4094*int32(p.next()&1)
	default:
		return int32(p.next()%41) - 20
	}
}

// TestReconBlockEquivalence holds dct.ReconBlock to the scalar chain over
// every quantiser_scale_code under both q_scale_types, intra blocks at all
// four intra_dc_precisions and non-intra blocks, the default and a custom
// weight matrix, and per parameter set: sparse, dense and all-±2047
// blocks, blocks whose levels put |F| just below, at and above the
// saturation (2047 positive, 2048 negative), DC-only blocks of both
// mismatch parities, frame and field row steps, and predictions of all
// 0, all 255 and noise under them. It checks the edges were hit.
func TestReconBlockEquivalence(t *testing.T) {
	needReconBlock(t)
	rng := storeRNG(0x9e3779b97f4a7c15)
	var custom [64]uint8
	for i := range custom {
		custom[i] = uint8(1 + rng.next()%255)
	}
	var edges [3]int // unsaturated |F|: 2047 (positive), 2048, above 2048
	var dcParity [2]int
	for _, nonLinear := range []bool{false, true} {
		for code := 1; code <= 31; code++ {
			scale := quant.Scale(code, nonLinear)
			for kind := 0; kind < 5; kind++ { // intra_dc_precision 0..3, then non-intra
				intra := kind < 4
				for _, m := range []*[64]uint8{nil, &custom} {
					p := quant.Params{Matrix: m, Scale: scale, Intra: intra, DCPrecision: kind & 3}
					if m == nil {
						p.Matrix = &quant.DefaultNonIntraMatrix
						if intra {
							p.Matrix = &quant.DefaultIntraMatrix
						}
					}
					k := int32(1)
					if intra {
						k = 0
					}
					var blocks [][64]int32
					var sparse, dense, extreme, edge [64]int32
					for n := 0; n < 4; n++ {
						sparse[rng.next()%64] = rng.level()
					}
					for i := range dense {
						dense[i] = rng.level()
						extreme[i] = 2047 - 4094*int32(i&1)
						// The level whose |F| first reaches 2047, or one
						// below or above it, of either sign.
						sw := scale * int32(p.Matrix[i])
						q := ((2047<<5)/sw - k + 1) / 2
						q += int32(rng.next()%3) - 1
						if q < 1 {
							q = 1
						}
						if q > 2047 {
							q = 2047
						}
						edge[i] = q
						if rng.next()&1 != 0 {
							edge[i] = -q
						}
						switch f := (2*q + k) * sw >> 5; {
						case f == 2047 && edge[i] > 0:
							edges[0]++
						case f == 2048:
							edges[1]++ // saturates if positive, exact if negative
						case f > 2048:
							edges[2]++
						}
					}
					blocks = append(blocks, sparse, dense, extreme, edge)
					if intra {
						// DC-only: the coefficient sum is the scaled DC, even
						// (mismatch control toggles F[63]) unless the
						// multiplier is 1 and the DC odd.
						dc := int32(rng.next() % 2048)
						for _, v := range []int32{dc, dc ^ 1} {
							var b [64]int32
							b[0] = v
							blocks = append(blocks, b)
							dcParity[v*quant.IntraDCMult(p.DCPrecision)&1]++
						}
					}
					for bi := range blocks {
						for _, fieldDCT := range []bool{false, true} {
							preds := []int{-1}
							if !intra {
								preds = []int{0, 255, -1}
							}
							for _, pred := range preds {
								checkReconBlock(t, &blockCase{qf: blocks[bi], p: p, fieldDCT: fieldDCT, pred: pred}, &rng)
							}
						}
					}
				}
			}
		}
	}
	if edges[0] == 0 || edges[1] == 0 || edges[2] == 0 || dcParity[0] == 0 || dcParity[1] == 0 {
		t.Fatalf("edges not covered: |F| 2047 / 2048 / above %v, DC sum even/odd %v", edges, dcParity)
	}
}

// FuzzReconBlock holds dct.ReconBlock to the scalar chain on arbitrary
// blocks: the first bytes pick quantiser_scale_code, q_scale_type, intra
// precision or non-intra, field DCT, the prediction and a custom matrix,
// the rest are levels folded into [-2047, 2047] at fuzzer-chosen
// positions. Run long with: go test -fuzz=FuzzReconBlock ./internal/decoder
func FuzzReconBlock(f *testing.F) {
	f.Add([]byte{4, 0, 0, 0, 0, 0x10, 0x00, 0x01, 0x07, 0xff, 0x3f, 0xff})
	f.Add([]byte{31, 1, 4, 1, 255, 0, 0xff, 0x0f, 0xff, 0x00, 0x08, 0x7f, 0x80})
	f.Add([]byte{17, 0, 3, 0, 0, 0x80, 0x00, 0xc0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		needReconBlock(t)
		kind := int(data[2] % 5)
		c := blockCase{
			p: quant.Params{
				Scale:       quant.Scale(int(data[0]%31)+1, data[1]&1 != 0),
				Intra:       kind < 4,
				DCPrecision: kind & 3,
				Matrix:      &quant.DefaultNonIntraMatrix,
			},
			fieldDCT: data[3]&1 != 0,
			pred:     int(data[4]) - 1, // -1: noise
		}
		if c.p.Intra {
			c.p.Matrix = &quant.DefaultIntraMatrix
		}
		data = data[5:]
		if len(data) >= 64 && data[0]&1 != 0 {
			var m [64]uint8
			for i := range m {
				m[i] = max(data[i], 1)
			}
			c.p.Matrix = &m
			data = data[64:]
		}
		for pos := 0; len(data) >= 3; data = data[3:] {
			pos = (pos + int(data[0])) % 64
			c.qf[pos] = int32(uint16(data[1])<<8|uint16(data[2]))%4095 - 2047
		}
		rng := storeRNG(0x2545f4914f6cdd1d)
		checkReconBlock(t, &c, &rng)
	})
}

// scene is a decoded stream's pictures, each with the macroblocks that
// carry coded blocks.
type scene struct {
	seq  mpeg2.SequenceHeader
	pics []scenePic
}

type scenePic struct {
	ph  mpeg2.PictureHeader
	mbs []mpeg2.MB
}

var (
	scenesOnce sync.Once
	scenes     map[string]*scene
)

// decodedScenes encodes one short stream of each of the benchmark's
// sequential scenes — all-I SIF at 8 Mb/s (seq-intra-sif) and one IBBP
// group of 704×480 at 4 Mb/s (seq-ipb-sd) — and keeps the macroblocks the
// VLD decoded from them, once per test binary.
func decodedScenes(tb testing.TB) map[string]*scene {
	scenesOnce.Do(func() {
		scenes = map[string]*scene{}
		for name, cfg := range map[string]encoder.Config{
			"intra-sif": {Width: 352, Height: 240, Pictures: 4, GOPSize: 1, BitRate: 8_000_000, RepeatSequenceHeader: true},
			"ipb-sd":    {Width: 704, Height: 480, Pictures: 13, GOPSize: 13, IPDistance: 3, BitRate: 4_000_000, RepeatSequenceHeader: true},
		} {
			res, err := encoder.EncodeSequence(cfg, frame.NewSynth(cfg.Width, cfg.Height))
			if err != nil {
				tb.Fatal(err)
			}
			s := &scene{}
			r := bits.NewReader(res.Data)
			var params mpeg2.PictureParams
			for {
				code, err := r.NextStartCode()
				if err != nil {
					break
				}
				r.Skip(32)
				switch {
				case code == mpeg2.SequenceHeaderCode:
					if s.seq, err = mpeg2.ParseSequenceHeader(r); err != nil {
						tb.Fatal(err)
					}
				case code == mpeg2.PictureStartCode:
					ph, err := mpeg2.ParsePictureHeader(r)
					if err != nil {
						tb.Fatal(err)
					}
					params = PictureParams(&s.seq, &ph)
					s.pics = append(s.pics, scenePic{ph: ph})
				case code >= mpeg2.SliceStartMin && code <= mpeg2.SliceStartMax:
					ds, err := mpeg2.DecodeSliceInto(r, &params, int(code)-1, nil)
					if err != nil {
						tb.Fatal(err)
					}
					pic := &s.pics[len(s.pics)-1]
					for _, mb := range ds.MBs {
						if mb.Type.Intra || mb.CBP != 0 {
							pic.mbs = append(pic.mbs, mb)
						}
					}
				}
			}
			scenes[name] = s
		}
	})
	return scenes
}

// BenchmarkReconBlock reconstructs every coded block the VLD decoded from
// the seq-intra-sif and seq-ipb-sd scenes, one op a pass over all of them,
// through the chain (a copy of the block, quant.InverseMasked,
// dct.InverseSparse, the store — the SWAR one on amd64, which has no
// store kernel of its own) and through dct.ReconBlock, and reports
// ns/block.
func BenchmarkReconBlock(b *testing.B) {
	needReconBlock(b)
	for _, name := range []string{"intra-sif", "ipb-sd"} {
		s := decodedScenes(b)[name]
		for _, path := range []struct {
			name string
			asm  bool
		}{{"chain", false}, {"kernel", true}} {
			b.Run(name+"/"+path.name, func(b *testing.B) {
				kernels.Set(kernels.LevelASM)
				asmBlock = path.asm
				defer kernels.Set(kernels.LevelSWAR)
				dst := frame.New(s.seq.Width, s.seq.Height)
				mbw := s.seq.MBWidth()
				var sc Scratch
				blocks := 0
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					for i := range s.pics {
						ph := &s.pics[i].ph
						for j := range s.pics[i].mbs {
							mb := &s.pics[i].mbs[j]
							scale := quant.Scale(mb.QScaleCode, ph.QScaleType)
							p := quant.Params{Matrix: &s.seq.NonIntraMatrix, Scale: scale}
							dq, cbp, dcMult := &sc.inter, mb.CBP, int32(0)
							if mb.Type.Intra {
								p = quant.Params{Matrix: &s.seq.IntraMatrix, Scale: scale, Intra: true, DCPrecision: ph.IntraDCPrecision}
								dq, cbp, dcMult = &sc.intra, 0x3F, quant.IntraDCMult(p.DCPrecision)
							}
							dq.Set(p.Matrix, scale, dcMult)
							for k := 0; k < 6; k++ {
								if cbp&(1<<uint(5-k)) != 0 {
									reconBlock(dst, mb, k, mb.Addr%mbw, mb.Addr/mbw, p, dq)
									blocks++
								}
							}
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(blocks), "ns/block")
			})
		}
	}
}
