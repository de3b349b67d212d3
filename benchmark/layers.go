package main

import (
	"fmt"
	"time"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/core"
	"mpeg2par/internal/dct"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/motion"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/quant"
	"mpeg2par/internal/vlc"
)

// The layer replay decodes a stream from the harness, one exported call
// at a time, so that each layer's time can be taken from outside: the
// scan, then per picture the header parse, then per slice the
// variable-length decode (bits.Reader + vlc + mpeg2.DecodeSliceInto) and
// the reconstruction (decoder.ReconSlice) into pooled frames with the
// right references. Beside each reconstruction it replays just the
// dequantise+IDCT calls and just the motion-compensation calls the slice
// needed, over copies of the decoded blocks and with the decoded
// vectors, to split reconstruction into IDCT, motion compensation and
// the remainder (block store). A verifying replay hashes every frame
// against the oracle, so the replay is known to be the real work.

// typeTimes accumulates per picture coding type.
type typeTimes struct {
	pics       int
	vld, recon time.Duration
}

// sliceCost is one slice's compressed size and measured decode time, the
// pair the scheduler's cost model predicts one from the other.
type sliceCost struct {
	bytes int64
	dur   time.Duration
}

// replayStats is what one replay of the stream measured.
type replayStats struct {
	pics                          int
	scan, header, vld, recon      time.Duration
	idct, mc                      time.Duration // the two block replays
	byType                        [4]typeTimes  // indexed by vlc.PictureCoding
	vldBits                       int64
	slices                        int
	work                          decoder.WorkStats
	costs                         []sliceCost
	pool                          frame.Stats
	idctBlocks, mcMBs, codedBytes int64
}

// decodeTime is the replayed decode work the shares are taken over: the
// block replays repeat work already inside recon and are left out.
func (s *replayStats) decodeTime() time.Duration { return s.scan + s.header + s.vld + s.recon }

// replay runs the layer-by-layer decode of data once. With verify set it
// hashes every frame against oracle (and its spans then include nothing
// but the layer calls; the hashing falls between them).
func replay(data []byte, oracle []uint64, verify bool, tr *tracer, iter int) (*replayStats, error) {
	st := &replayStats{}
	root := tr.begin("replay", -1, iter, 0)
	defer tr.end(root)

	t0 := time.Now()
	m, err := core.Scan(data)
	st.scan = time.Since(t0)
	tr.add("core.Scan", t0, st.scan, root, iter, 0)
	if err != nil {
		return nil, err
	}

	pool := frame.NewPool(m.Seq.Width, m.Seq.Height)
	var refOld, refNew *frame.Frame
	var rd bits.Reader
	var mbs []mpeg2.MB
	mbw := m.Seq.MBWidth()

	for g := range m.GOPs {
		gop := &m.GOPs[g]
		for pi := range gop.Pictures {
			pr := &gop.Pictures[pi]
			picSpan := tr.begin("picture", root, iter, 0)

			t0 = time.Now()
			rd.Reset(data[:pr.End])
			rd.SeekBit(int64(pr.Offset+4) * 8)
			hdr, err := mpeg2.ParsePictureHeader(&rd)
			d := time.Since(t0)
			tr.add("mpeg2.ParsePictureHeader", t0, d, picSpan, iter, 0)
			st.header += d
			if err != nil {
				return nil, fmt.Errorf("replay: picture header: %w", err)
			}
			params := decoder.PictureParams(&m.Seq, &hdr)

			refs := decoder.Refs{}
			switch hdr.Type {
			case vlc.CodingP:
				refs.Fwd = refNew
			case vlc.CodingB:
				refs.Fwd, refs.Bwd = refOld, refNew
			}
			dst := pool.Get()
			tt := &st.byType[hdr.Type]
			tt.pics++

			for si := range pr.Slices {
				sl := &pr.Slices[si]
				rd.Reset(data[:sl.End])
				rd.SeekBit(int64(sl.Offset) * 8)
				code, err := rd.ReadStartCode()
				if err != nil {
					return nil, fmt.Errorf("replay: slice startcode: %w", err)
				}
				b0 := rd.BitPos()
				t0 = time.Now()
				ds, err := mpeg2.DecodeSliceInto(&rd, &params, int(code)-1, mbs)
				dv := time.Since(t0)
				tr.add("mpeg2.DecodeSliceInto", t0, dv, picSpan, iter, 0)
				mbs = ds.MBs
				if err != nil {
					return nil, fmt.Errorf("replay: slice: %w", err)
				}
				st.vldBits += rd.BitPos() - b0

				t0 = time.Now()
				ws, err := decoder.ReconSlice(&m.Seq, &hdr, refs, dst, &ds, 0, nil)
				dr := time.Since(t0)
				tr.add("decoder.ReconSlice", t0, dr, picSpan, iter, 0)
				if err != nil {
					return nil, fmt.Errorf("replay: recon: %w", err)
				}
				st.work.Add(ws)
				st.vld += dv
				st.recon += dr
				tt.vld += dv
				tt.recon += dr
				st.slices++
				st.costs = append(st.costs, sliceCost{int64(sl.Bytes), dv + dr})
				st.codedBytes += int64(sl.Bytes)

				t0 = time.Now()
				st.idctBlocks += replayIDCT(&m.Seq, &hdr, &ds)
				d = time.Since(t0)
				tr.add("quant+dct replay", t0, d, picSpan, iter, 0)
				st.idct += d

				t0 = time.Now()
				st.mcMBs += replayMC(&hdr, refs, &ds, mbw)
				d = time.Since(t0)
				tr.add("motion replay", t0, d, picSpan, iter, 0)
				st.mc += d
			}
			tr.end(picSpan)
			st.pics++

			if verify {
				idx := gop.FirstDisplay + pr.TemporalRef
				if idx >= len(oracle) || frameHash(dst) != oracle[idx] {
					return nil, fmt.Errorf("replay: frame at display %d differs from the oracle", idx)
				}
			}
			if hdr.Type == vlc.CodingB {
				pool.Put(dst)
				continue
			}
			if refOld != nil {
				pool.Put(refOld)
			}
			refOld, refNew = refNew, dst
		}
	}
	st.pool = pool.Stats()
	if st.pics != len(oracle) {
		return nil, fmt.Errorf("replay: %d pictures, oracle has %d", st.pics, len(oracle))
	}
	return st, nil
}

// replayIDCT runs quant.InverseSparse + dct.InverseSparse over a copy of
// every coded block of the slice, with the parameters reconstruction
// uses, and returns the number of blocks.
func replayIDCT(seq *mpeg2.SequenceHeader, ph *mpeg2.PictureHeader, ds *mpeg2.DecodedSlice) int64 {
	var n int64
	for i := range ds.MBs {
		mb := &ds.MBs[i]
		p := quant.Params{Matrix: &seq.NonIntraMatrix, Scale: quant.Scale(mb.QScaleCode, ph.QScaleType)}
		if mb.Type.Intra {
			p = quant.Params{Matrix: &seq.IntraMatrix, Scale: p.Scale, Intra: true, DCPrecision: ph.IntraDCPrecision}
		}
		for b := 0; b < 6; b++ {
			if !mb.Type.Intra && mb.CBP&(1<<uint(5-b)) == 0 {
				continue
			}
			blk := mb.Blocks[b]
			nz := 0
			if mb.SparseValid {
				nz = int(mb.NNZ[b])
			} else {
				for _, v := range blk {
					if v != 0 {
						nz++
					}
				}
			}
			rowMask, dcOnly := quant.InverseSparse(&blk, p, nz)
			dct.InverseSparse(&blk, rowMask, dcOnly)
			n++
		}
	}
	return n
}

// replayMC forms the prediction of every predicted macroblock of the
// slice with the decoded vectors, as reconstruction does, and returns
// the number of macroblocks.
func replayMC(ph *mpeg2.PictureHeader, refs decoder.Refs, ds *mpeg2.DecodedSlice, mbw int) int64 {
	if ph.Type == vlc.CodingI {
		return 0
	}
	var pred, pred2 motion.MBPred
	fwd := func(dst *motion.MBPred, mb *mpeg2.MB, x, y int) {
		if mb.FieldMotion {
			motion.PredictMBField(dst, refs.Fwd, x, y, mb.FieldSelFwd, mb.MVFwd, mb.MVFwd2)
			return
		}
		motion.PredictMB(dst, refs.Fwd, x, y, mb.MVFwd)
	}
	bwd := func(dst *motion.MBPred, mb *mpeg2.MB, x, y int) {
		if mb.FieldMotion {
			motion.PredictMBField(dst, refs.Bwd, x, y, mb.FieldSelBwd, mb.MVBwd, mb.MVBwd2)
			return
		}
		motion.PredictMB(dst, refs.Bwd, x, y, mb.MVBwd)
	}
	var n int64
	for i := range ds.MBs {
		mb := &ds.MBs[i]
		if mb.Type.Intra {
			continue
		}
		x, y := mb.Addr%mbw, mb.Addr/mbw
		switch {
		case ph.Type == vlc.CodingP:
			fwd(&pred, mb, x, y)
		case mb.Type.MotionForward && mb.Type.MotionBackward:
			fwd(&pred, mb, x, y)
			bwd(&pred2, mb, x, y)
			motion.AverageMB(&pred, &pred, &pred2)
		case mb.Type.MotionBackward:
			bwd(&pred, mb, x, y)
		default:
			fwd(&pred, mb, x, y)
		}
		n++
	}
	return n
}
