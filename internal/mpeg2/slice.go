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
	// mv[s][t] is what the picture's f_code[s][t] means for a vector
	// component, derived once per picture binding instead of once per
	// component decoded.
	mv [2][2]mvRange
}

// mvRange is the arithmetic of one f_code (§7.6.3.1): a component's
// differential is motion_code scaled by f = 1<<rbits plus an rbits-bit
// residual, and the component wraps into [low, high] modulo rng. An
// f_code outside 1..9 leaves ok false; that is an error only once a
// vector of its direction is coded (f_code 15 is legal where unused).
type mvRange struct {
	rbits          uint
	high, low, rng int
	ok             bool
}

// wrap brings a component, or a differential, that is at most one range
// out back into [low, high].
func (m *mvRange) wrap(v int) int {
	if v > m.high {
		v -= m.rng
	}
	if v < m.low {
		v += m.rng
	}
	return v
}

// delta is the differential a nonzero motion_code and its residual stand
// for.
func (m *mvRange) delta(code, residual int) int {
	if code < 0 {
		return -((-code-1)<<m.rbits + residual + 1)
	}
	return (code-1)<<m.rbits + residual + 1
}

// init prepares a sliceState for a new slice. Used instead of a
// constructor so decode loops can keep the state on the stack (or embed
// it in per-worker scratch) rather than allocating one per slice.
func (s *sliceState) init(p *PictureParams, qscale int) {
	s.bind(p)
	s.qscale = qscale
	s.resetDC()
	s.resetPMV()
}

// bind attaches the picture parameters and derives the vector ranges.
func (s *sliceState) bind(p *PictureParams) {
	s.p = p
	for dir := range s.mv {
		for t := range s.mv[dir] {
			m := mvRange{}
			if fcode := p.FCode[dir][t]; fcode >= 1 && fcode <= 9 {
				f := 1 << uint(fcode-1)
				m = mvRange{rbits: uint(fcode - 1), high: 16*f - 1, low: -16 * f, rng: 32 * f, ok: true}
			}
			s.mv[dir][t] = m
		}
	}
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
		m := &s.mv[dir][t]
		if !m.ok {
			return fmt.Errorf("mpeg2: invalid f_code %d", s.p.FCode[dir][t])
		}
		f := 1 << m.rbits
		if comps[t] > m.high || comps[t] < m.low {
			return fmt.Errorf("mpeg2: motion component %d outside f_code %d range", comps[t], s.p.FCode[dir][t])
		}
		pred := s.pmv[rv][dir][t]
		if field && t == 1 {
			pred >>= 1
		}
		delta := m.wrap(comps[t] - pred)
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
				w.Put(uint32(residual), m.rbits)
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

// decodeVector reads motion vector rv of direction dir: with field set, its
// motion_vertical_field_select and a vector whose vertical component is
// in field units (semantics as in encodeVector).
//
// The select and both components — 1 + 2 × (motion_code of at most 11
// bits + residual of at most 8) = 39 bits at most — are read through one
// window on the stream and consumed with one Skip (vectorWindow). Anything
// irregular — no code matches, an invalid f_code, fewer bits left than the
// window consumed — is left to the symbol-at-a-time reader, which starts
// over from an untouched reader and state and so reports the error it
// always did, where it always did.
func (s *sliceState) decodeVector(r *bits.Reader, rv, dir int, field bool) (mv motion.MV, sel bool, err error) {
	if mv, sel, ok := s.vectorWindow(r, rv, dir, field); ok {
		return mv, sel, nil
	}
	if field {
		sel = r.ReadBit()
	}
	mv, err = s.decodeVectorSerial(r, rv, dir, field)
	return mv, sel, err
}

// vectorWindow is decodeVector on a well-formed stream. When it reports
// !ok it has consumed nothing and changed no predictor.
func (s *sliceState) vectorWindow(r *bits.Reader, rv, dir int, field bool) (mv motion.MV, sel, ok bool) {
	w, _ := r.Window() // at least 57 bits; zeros past the end of the buffer
	used := uint(0)
	if field {
		sel = w>>63 != 0
		w <<= 1
		used = 1
	}
	var comps [2]int
	for t := 0; t < 2; t++ {
		m := &s.mv[dir][t]
		code, n := vlc.MotionCodeLookup(w)
		if n == 0 || !m.ok {
			return motion.MV{}, false, false
		}
		w <<= n
		used += n
		delta := 0
		if code != 0 {
			// rbits is 0..8; the mask only tells the compiler so. The two
			// right shifts make a zero-bit residual read as 0.
			rbits := m.rbits & 15
			delta = m.delta(code, int(w>>1>>(63-rbits)))
			w <<= rbits
			used += rbits
		}
		pred := s.pmv[rv][dir][t]
		if field && t == 1 {
			pred >>= 1
		}
		comps[t] = m.wrap(pred + delta)
	}
	if int64(used) > r.Remaining() {
		return motion.MV{}, false, false
	}
	r.Skip(used)
	s.pmv[rv][dir][0], s.pmv[rv][dir][1] = comps[0], comps[1]
	if field {
		s.pmv[rv][dir][1] = comps[1] * 2
	}
	return motion.MV{X: comps[0], Y: comps[1]}, sel, true
}

// decodeVectorSerial reads the two components of a vector one symbol at
// a time: the reader behind vectorWindow, and the reference its results
// are defined by.
func (s *sliceState) decodeVectorSerial(r *bits.Reader, rv, dir int, field bool) (motion.MV, error) {
	var comps [2]int
	for t := 0; t < 2; t++ {
		m := &s.mv[dir][t]
		if !m.ok {
			return motion.MV{}, fmt.Errorf("mpeg2: invalid f_code %d in stream", s.p.FCode[dir][t])
		}
		code, err := vlc.DecodeMotionCode(r)
		if err != nil {
			return motion.MV{}, err
		}
		delta := 0
		if code != 0 {
			residual := 0
			if m.rbits > 0 {
				residual = int(r.Read(m.rbits))
			}
			delta = m.delta(code, residual)
		}
		pred := s.pmv[rv][dir][t]
		if field && t == 1 {
			pred >>= 1
		}
		v := m.wrap(pred + delta)
		upd := v
		if field && t == 1 {
			upd = v * 2
		}
		s.pmv[rv][dir][t] = upd
		comps[t] = v
	}
	return motion.MV{X: comps[0], Y: comps[1]}, r.Err()
}

// decodeVectors reads the vectors of direction dir (0 forward, 1
// backward) into mb: one frame vector, duplicated into PMV slot 1
// (§7.6.3.1), or with FieldMotion two field vectors and their selects.
func (s *sliceState) decodeVectors(r *bits.Reader, mb *MB, dir int) (err error) {
	mv, mv2, sel := &mb.MVFwd, &mb.MVFwd2, &mb.FieldSelFwd
	if dir == 1 {
		mv, mv2, sel = &mb.MVBwd, &mb.MVBwd2, &mb.FieldSelBwd
	}
	if !mb.FieldMotion {
		if *mv, _, err = s.decodeVector(r, 0, dir, false); err == nil {
			s.pmv[1][dir] = [2]int{mv.X, mv.Y} // = pmv[0][dir], without reloading it
		}
		return err
	}
	if *mv, sel[0], err = s.decodeVector(r, 0, dir, true); err != nil {
		return err
	}
	*mv2, sel[1], err = s.decodeVector(r, 1, dir, true)
	return err
}

// --- macroblock modes (§6.2.5.1) -----------------------------------------

// decodeModes reads what opens a macroblock — macroblock_type and, as the
// type and the picture call for them, frame_motion_type, dct_type and
// quantiser_scale_code, 14 bits at most — into mb and the quantiser state.
// Like a vector they come out of one window and one Skip (modesWindow),
// and anything irregular (no type matches, a reserved or dual-prime
// frame_motion_type, quantiser_scale_code 0, the end of the buffer inside
// the window) is left to the symbol-at-a-time reader to report.
func (s *sliceState) decodeModes(r *bits.Reader, mb *MB) error {
	if s.modesWindow(r, mb) {
		return nil
	}
	return s.decodeModesSerial(r, mb)
}

// modesWindow is decodeModes on a well-formed stream. When it reports
// false it has consumed nothing and changed neither mb nor the state.
func (s *sliceState) modesWindow(r *bits.Reader, mb *MB) bool {
	w, _ := r.Window()
	t, used := vlc.MBTypeLookup(w, s.p.Type)
	if used == 0 {
		return false
	}
	w <<= used
	fieldMotion, fieldDCT := false, false
	if !s.p.FramePredFrameDCT {
		if t.MotionForward || t.MotionBackward {
			switch w >> 62 {
			case 0b10: // frame-based
			case 0b01:
				fieldMotion = true
			default: // dual prime, reserved
				return false
			}
			w <<= 2
			used += 2
		}
		if t.Intra || t.Pattern {
			fieldDCT = w>>63 != 0
			w <<= 1
			used++
		}
	}
	qs := s.qscale
	if t.Quant {
		if qs = int(w >> 59); qs == 0 {
			return false
		}
		used += 5
	}
	if int64(used) > r.Remaining() {
		return false
	}
	r.Skip(used)
	mb.Type, mb.FieldMotion, mb.FieldDCT = t, fieldMotion, fieldDCT
	s.qscale = qs
	return true
}

// decodeModesSerial reads the macroblock modes one field at a time: the
// reader behind modesWindow, and the reference its results are defined by.
func (s *sliceState) decodeModesSerial(r *bits.Reader, mb *MB) error {
	t, err := vlc.DecodeMBType(r, s.p.Type)
	if err != nil {
		return err
	}
	mb.Type = t
	if !s.p.FramePredFrameDCT {
		if t.MotionForward || t.MotionBackward {
			switch r.Read(2) {
			case 0b10:
				// frame-based
			case 0b01:
				mb.FieldMotion = true
			case 0b11:
				return fmt.Errorf("mpeg2: dual-prime prediction not supported")
			default:
				return fmt.Errorf("mpeg2: reserved frame_motion_type")
			}
		}
		if t.Intra || t.Pattern {
			mb.FieldDCT = r.ReadBit()
		}
	}
	if t.Quant {
		qs := int(r.Read(5))
		if qs == 0 {
			return fmt.Errorf("mpeg2: macroblock quantiser_scale_code 0")
		}
		s.qscale = qs
	}
	return nil
}

// decodeHeader reads everything of a macroblock ahead of its
// coded_block_pattern: the modes, then the vectors the type calls for.
func (s *sliceState) decodeHeader(r *bits.Reader, mb *MB) error {
	if err := s.decodeModes(r, mb); err != nil {
		return err
	}
	mb.QScaleCode = s.qscale
	if mb.Type.MotionForward {
		if err := s.decodeVectors(r, mb, 0); err != nil {
			return err
		}
	}
	if mb.Type.MotionBackward {
		return s.decodeVectors(r, mb, 1)
	}
	return nil
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
