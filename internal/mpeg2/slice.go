package mpeg2

import (
	"fmt"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/motion"
	"mpeg2par/internal/quant"
	"mpeg2par/internal/scan"
	"mpeg2par/internal/vlc"
)

func zig(pos int) int { return scan.Zigzag[pos] }

// MB is the structured form of one macroblock. The slice codec translates
// between MB values and bits, absorbing all predictive bitstream state
// (DC predictors, motion vector predictors, quantiser scale, skip rules):
// MVFwd/MVBwd are actual vectors, Blocks[i][0] of an intra block is the
// actual quantized DC value, and QScaleCode is the scale in effect at the
// macroblock.
type MB struct {
	Addr       int // macroblock address: row*mbWidth + column
	Type       vlc.MBType
	QScaleCode int
	MVFwd      motion.MV // half-pel, luma scale
	MVBwd      motion.MV
	CBP        int // derived from Blocks on encode when Type.Pattern
	Skipped    bool
	Blocks     [6][64]int32 // quantized coefficients, raster order

	// Interlaced coding fields (frame pictures with frame_pred_frame_dct
	// = 0). With FieldMotion set, MVFwd/MVBwd are the first (top-field)
	// vectors and MVFwd2/MVBwd2 the second (bottom-field) vectors, all
	// with *field-unit* vertical components; FieldSelFwd/FieldSelBwd give
	// each vector's motion_vertical_field_select.
	FieldMotion bool
	FieldDCT    bool // dct_type: field-organized DCT blocks
	MVFwd2      motion.MV
	MVBwd2      motion.MV
	FieldSelFwd [2]bool
	FieldSelBwd [2]bool

	// Sparsity metadata recorded by the VLC stage, valid only when
	// SparseValid is set (hand-built MBs leave it false and downstream
	// kernels rescan the block instead). Bit j of Mask[i] is set exactly
	// when Blocks[i][j] is nonzero, and NNZ[i] is the number of set bits.
	// quant.InverseMasked walks the mask, so dequantization visits the
	// coefficients the VLC stage wrote and nothing else.
	NNZ         [6]uint8
	Mask        [6]uint64
	SparseValid bool
}

// PictureParams bundles everything the slice layer needs about the
// enclosing picture.
type PictureParams struct {
	MBWidth, MBHeight int
	Type              vlc.PictureCoding
	FCode             [2][2]int
	IntraDCPrecision  int
	QScaleType        bool
	IntraVLCFormat    bool
	AlternateScan     bool
	// FramePredFrameDCT mirrors the picture coding extension flag: when
	// false (interlaced coding), macroblocks carry frame_motion_type and
	// dct_type fields and may use field prediction / field DCT.
	FramePredFrameDCT bool
}

func (p *PictureParams) validate() error {
	if p.MBWidth < 1 || p.MBHeight < 1 {
		return fmt.Errorf("mpeg2: bad picture geometry %dx%d MBs", p.MBWidth, p.MBHeight)
	}
	if p.Type < vlc.CodingI || p.Type > vlc.CodingB {
		return fmt.Errorf("mpeg2: bad picture type %d", int(p.Type))
	}
	return nil
}

// sliceState is the predictive state shared by encode and decode.
type sliceState struct {
	p      *PictureParams
	dcPred [3]int32
	// pmv[r][s][t]: r first/second vector, s 0=fwd 1=bwd, t 0=x 1=y.
	// Vertical components are stored at frame scale; field vectors halve
	// the prediction on use and double the result on update (§7.6.3.1).
	pmv    [2][2][2]int
	qscale int // current quantiser_scale_code
}

// init prepares a sliceState for a new slice. Used instead of a
// constructor so decode loops can keep the state on the stack (or embed
// it in per-worker scratch) rather than allocating one per slice.
func (s *sliceState) init(p *PictureParams, qscale int) {
	s.p = p
	s.qscale = qscale
	s.resetDC()
	s.resetPMV()
}

func (s *sliceState) resetDC() {
	reset := int32(1) << uint(s.p.IntraDCPrecision+7)
	s.dcPred[0], s.dcPred[1], s.dcPred[2] = reset, reset, reset
}

func (s *sliceState) resetPMV() {
	s.pmv = [2][2][2]int{}
}

// --- motion vector delta coding (§7.6.3) ---------------------------------

// encodeVector writes motion vector rv (first/second) for direction dir.
// With field set, the vertical component is in field units: its
// prediction is the halved PMV and the PMV update stores the doubled
// value.
func (s *sliceState) encodeVector(w *bits.Writer, rv, dir int, mv motion.MV, field bool) error {
	comps := [2]int{mv.X, mv.Y}
	for t := 0; t < 2; t++ {
		fcode := s.p.FCode[dir][t]
		if fcode < 1 || fcode > 9 {
			return fmt.Errorf("mpeg2: invalid f_code %d", fcode)
		}
		f := 1 << uint(fcode-1)
		high := 16*f - 1
		low := -16 * f
		rng := 32 * f
		if comps[t] > high || comps[t] < low {
			return fmt.Errorf("mpeg2: motion component %d outside f_code %d range", comps[t], fcode)
		}
		pred := s.pmv[rv][dir][t]
		if field && t == 1 {
			pred >>= 1
		}
		delta := comps[t] - pred
		if delta > high {
			delta -= rng
		}
		if delta < low {
			delta += rng
		}
		if delta == 0 {
			if err := vlc.EncodeMotionCode(w, 0); err != nil {
				return err
			}
		} else {
			mag := delta
			if mag < 0 {
				mag = -mag
			}
			code := (mag-1)/f + 1
			residual := (mag - 1) % f
			if delta < 0 {
				code = -code
			}
			if err := vlc.EncodeMotionCode(w, code); err != nil {
				return err
			}
			if f > 1 {
				w.Put(uint32(residual), uint(fcode-1))
			}
		}
		upd := comps[t]
		if field && t == 1 {
			upd = comps[t] * 2
		}
		s.pmv[rv][dir][t] = upd
	}
	return nil
}

// encodeMV writes a frame-prediction motion vector for direction dir
// (vector 0, duplicated into PMV slot 1 per §7.6.3.1).
func (s *sliceState) encodeMV(w *bits.Writer, dir int, mv motion.MV) error {
	if err := s.encodeVector(w, 0, dir, mv, false); err != nil {
		return err
	}
	s.pmv[1][dir] = s.pmv[0][dir]
	return nil
}

// decodeVector reads motion vector rv for direction dir (field semantics
// as in encodeVector).
func (s *sliceState) decodeVector(r *bits.Reader, rv, dir int, field bool) (motion.MV, error) {
	var comps [2]int
	for t := 0; t < 2; t++ {
		fcode := s.p.FCode[dir][t]
		if fcode < 1 || fcode > 9 {
			return motion.MV{}, fmt.Errorf("mpeg2: invalid f_code %d in stream", fcode)
		}
		f := 1 << uint(fcode-1)
		high := 16*f - 1
		low := -16 * f
		rng := 32 * f
		code, err := vlc.DecodeMotionCode(r)
		if err != nil {
			return motion.MV{}, err
		}
		delta := 0
		if code != 0 {
			mag := code
			if mag < 0 {
				mag = -mag
			}
			residual := 0
			if f > 1 {
				residual = int(r.Read(uint(fcode - 1)))
			}
			delta = (mag-1)*f + residual + 1
			if code < 0 {
				delta = -delta
			}
		}
		pred := s.pmv[rv][dir][t]
		if field && t == 1 {
			pred >>= 1
		}
		v := pred + delta
		if v > high {
			v -= rng
		}
		if v < low {
			v += rng
		}
		upd := v
		if field && t == 1 {
			upd = v * 2
		}
		s.pmv[rv][dir][t] = upd
		comps[t] = v
	}
	return motion.MV{X: comps[0], Y: comps[1]}, r.Err()
}

// decodeMV reads a frame-prediction motion vector for direction dir.
func (s *sliceState) decodeMV(r *bits.Reader, dir int) (motion.MV, error) {
	mv, err := s.decodeVector(r, 0, dir, false)
	if err != nil {
		return motion.MV{}, err
	}
	s.pmv[1][dir] = s.pmv[0][dir]
	return mv, nil
}

// --- block coefficient coding (§7.2) --------------------------------------

// encodeBlock writes one coded block. For intra blocks, blk[0] is the
// actual quantized DC; cc selects the DC predictor (0 luma, 1 Cb, 2 Cr).
func (s *sliceState) encodeBlock(w *bits.Writer, blk *[64]int32, intra bool, cc int, luma bool) error {
	tbl := scan.Table(s.p.AlternateScan)
	tableOne := intra && s.p.IntraVLCFormat
	start := 0
	if intra {
		diff := blk[0] - s.dcPred[cc]
		s.dcPred[cc] = blk[0]
		if err := vlc.EncodeDCDifferential(w, diff, luma); err != nil {
			return err
		}
		start = 1
	}
	run := 0
	first := !intra
	for pos := start; pos < 64; pos++ {
		v := blk[tbl[pos]]
		if v == 0 {
			run++
			continue
		}
		if err := vlc.EncodeCoef(w, tableOne, first, run, v); err != nil {
			return err
		}
		first = false
		run = 0
	}
	if !intra && first {
		return fmt.Errorf("mpeg2: non-intra coded block has no coefficients")
	}
	vlc.EncodeEOB(w, tableOne)
	return nil
}

// coefWindow is the state of a block decode between two looks at the
// reader: w holds the next avail bits of the stream left-justified, out of
// the loaded it held when the reader was last asked (what was consumed
// since is the difference), and rem is how many bits the buffer held from
// there, which may be fewer: past its end the window reads zeros.
type coefWindow struct {
	w             uint64
	avail, loaded uint
	rem           int64
	pos           int    // scan position of the next coefficient
	mask          uint64 // raster positions written so far
}

// load takes a fresh window at the reader's position.
func (c *coefWindow) load(r *bits.Reader) {
	c.rem = r.Remaining()
	c.w, c.loaded = r.Window()
	c.avail = c.loaded
}

func (c *coefWindow) used() uint { return c.loaded - c.avail }

// overrun reports whether the bits consumed extend past the end of the
// buffer.
func (c *coefWindow) overrun() bool { return int64(c.used()) > c.rem }

// fail settles how a block decode that cannot go on fails. The bits
// consumed include the offending symbol: if they extend past the buffer
// the failure is an underflow (the reader is run off the end, as by a
// Read, so its sticky error is set) whatever else err found wrong with
// the symbol.
func (c *coefWindow) fail(r *bits.Reader, err error) error {
	if c.overrun() {
		r.Skip(c.used())
		return fmt.Errorf("mpeg2: DCT coefficients: %w", bits.ErrUnderflow)
	}
	return err
}

// coefStop says why the symbol loop of a block decode stopped.
type coefStop int

const (
	stopRefill  coefStop = iota // fewer bits left than the longest symbol needs
	stopEOB                     // end of block
	stopInvalid                 // no code word starts with the bits at the window's top
	stopLevel                   // escape with a forbidden level, 0 or -2048
	stopRun                     // run leads past scan position 63
)

// symbols decodes run/level symbols out of the window into blk until
// fewer bits remain than the longest symbol needs, the block ends, or it
// meets a symbol the block cannot hold. Whatever it stopped at counts as
// consumed (an invalid code as one bit: whatever was meant, it had one).
// The first symbol is looked up in tab, the rest in next. The loop makes
// no call, so the window, the position and the mask stay in registers from
// the first symbol to the last.
func (c *coefWindow) symbols(tab, next *vlc.CoefTable, tbl *[64]int, blk *[64]int32) coefStop {
	w, avail, pos, mask := c.w, c.avail, c.pos, c.mask
	stop := stopRefill
	for avail >= vlc.EscapeBits {
		e := tab.Lookup(w)
		n, run := e.Len(), e.Run()
		level := vlc.SignedLevel(e, w)
		if run >= vlc.RunEOB {
			if run != vlc.RunEscape {
				stop, avail = stopEOB, avail-n
				if run == vlc.RunInvalid {
					stop, avail = stopInvalid, avail-1
				}
				break
			}
			if run, level = vlc.EscapeRunLevel(w); level == 0 || level == -2048 {
				stop, avail = stopLevel, avail-n
				break
			}
		}
		w <<= n & 63
		avail -= n
		pos += run
		if uint(pos) > 63 {
			stop = stopRun
			break
		}
		i := uint(tbl[pos]) & 63
		blk[i] = level
		mask |= 1 << i
		pos++
		tab = next
	}
	c.w, c.avail, c.pos, c.mask = w, avail, pos, mask
	return stop
}

// decodeBlock reads one coded block into blk (raster order, zero-filled)
// and returns its mask: bit i set exactly when blk[i] is nonzero — the
// contract quant.InverseMasked consumes.
//
// The block is decoded out of a window on the stream (coefWindow), and the
// reader is consulted again only when the window runs low. Symbols are not
// checked against the end of the buffer one by one. Past the end the
// window reads zeros, which no table accepts, so at most one symbol can
// straddle the end before the symbol loop stops on an invalid code; every
// way out of the function then compares what was consumed with what the
// buffer held (coefWindow.fail), which reports the straddling symbol as
// the underflow it is whatever the bits after it looked like.
func (s *sliceState) decodeBlock(r *bits.Reader, blk *[64]int32, intra bool, cc int, luma bool) (mask uint64, err error) {
	*blk = [64]int32{}
	var c coefWindow
	c.load(r)
	if intra {
		// dct_dc_size (at most 10 bits) and the differential (at most 11).
		size, n := vlc.DCSizeLookup(c.w, luma)
		if n == 0 {
			c.avail-- // whatever was meant, it had a bit
			return 0, c.fail(r, fmt.Errorf("mpeg2: invalid dct_dc_size code at bit %d", r.BitPos()))
		}
		c.w <<= n
		dc := s.dcPred[cc]
		if size > 0 {
			dc += vlc.DCDifferential(int32(c.w>>(64-size)), size)
			c.w <<= size
		}
		c.avail -= n + size
		if maxDC := int32(1)<<uint(s.p.IntraDCPrecision+8) - 1; dc < 0 || dc > maxDC || c.overrun() {
			return 0, c.fail(r, fmt.Errorf("mpeg2: intra DC %d out of range", dc))
		}
		s.dcPred[cc] = dc
		blk[0] = dc
		if dc != 0 {
			c.mask = 1
		}
		c.pos = 1
	}

	tableOne := intra && s.p.IntraVLCFormat
	tab, next := vlc.CoefDecodeTable(tableOne, !intra), vlc.CoefDecodeTable(tableOne, false)
	tbl := scan.Table(s.p.AlternateScan)
	for {
		switch c.symbols(tab, next, tbl, blk) {
		case stopEOB:
			if !intra && c.mask == 0 {
				return 0, c.fail(r, fmt.Errorf("mpeg2: empty non-intra block"))
			}
			if c.overrun() {
				return 0, c.fail(r, nil)
			}
			r.Skip(c.used())
			return c.mask, nil
		case stopInvalid:
			return 0, c.fail(r, fmt.Errorf("mpeg2: invalid DCT coefficient code %016b at bit %d", c.w>>48, r.BitPos()+int64(c.used())-1))
		case stopLevel:
			return 0, c.fail(r, fmt.Errorf("mpeg2: forbidden escape level (0 or -2048) before bit %d", r.BitPos()+int64(c.used())))
		case stopRun:
			return 0, c.fail(r, fmt.Errorf("mpeg2: coefficient run overflows block (pos %d)", c.pos))
		}
		// The window ran low: move the reader up to it and look again. The
		// first symbol of the block is behind us (a fresh window holds the
		// DC term and a symbol), so the first-coefficient table is too.
		if c.overrun() {
			return 0, c.fail(r, nil)
		}
		r.Skip(c.used())
		c.load(r)
		tab = next
	}
}

// QScale returns the quantiser scale value for a scale code under the
// picture's q_scale_type.
func (p *PictureParams) QScale(code int) int32 { return quant.Scale(code, p.QScaleType) }
