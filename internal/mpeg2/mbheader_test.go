package mpeg2

import (
	"fmt"
	"math/rand"
	"testing"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/motion"
	"mpeg2par/internal/vlc"
)

// --- per-symbol reference ------------------------------------------------------
//
// refDecodeHeader is what decodeHeader is held to: the macroblock header
// parser this package had before the header was read through a window. It
// asks the reader for one field at a time (vlc.DecodeMBType, Read, ReadBit,
// vlc.DecodeMotionCode), works the f_code arithmetic out per component from
// PictureParams.FCode, and keeps its predictors in a headerState of its own.
// It shares neither window, nor lookups, nor the derived vector ranges with
// the kernel.

// headerState is the predictive state a macroblock header reads and
// writes.
type headerState struct {
	pmv    [2][2][2]int
	qscale int
}

func refDecodeVector(r *bits.Reader, p *PictureParams, hs *headerState, rv, dir int, field bool) (motion.MV, error) {
	var comps [2]int
	for t := 0; t < 2; t++ {
		fcode := p.FCode[dir][t]
		if fcode < 1 || fcode > 9 {
			return motion.MV{}, fmt.Errorf("mpeg2: invalid f_code %d in stream", fcode)
		}
		f := 1 << uint(fcode-1)
		high, low, rng := 16*f-1, -16*f, 32*f
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
		pred := hs.pmv[rv][dir][t]
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
		hs.pmv[rv][dir][t] = v
		if field && t == 1 {
			hs.pmv[rv][dir][t] = v * 2
		}
		comps[t] = v
	}
	return motion.MV{X: comps[0], Y: comps[1]}, r.Err()
}

func refDecodeHeader(r *bits.Reader, p *PictureParams, hs *headerState, mb *MB) error {
	t, err := vlc.DecodeMBType(r, p.Type)
	if err != nil {
		return err
	}
	mb.Type = t
	if !p.FramePredFrameDCT {
		if t.MotionForward || t.MotionBackward {
			switch r.Read(2) {
			case 0b10:
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
		hs.qscale = qs
	}
	mb.QScaleCode = hs.qscale
	vectors := func(dir int, mv, mv2 *motion.MV, sel *[2]bool) error {
		if !mb.FieldMotion {
			v, err := refDecodeVector(r, p, hs, 0, dir, false)
			if err != nil {
				return err
			}
			hs.pmv[1][dir] = hs.pmv[0][dir]
			*mv = v
			return nil
		}
		for rv, out := range [2]*motion.MV{mv, mv2} {
			sel[rv] = r.ReadBit()
			if *out, err = refDecodeVector(r, p, hs, rv, dir, true); err != nil {
				return err
			}
		}
		return nil
	}
	if t.MotionForward {
		if err := vectors(0, &mb.MVFwd, &mb.MVFwd2, &mb.FieldSelFwd); err != nil {
			return err
		}
	}
	if t.MotionBackward {
		return vectors(1, &mb.MVBwd, &mb.MVBwd2, &mb.FieldSelBwd)
	}
	return nil
}

// --- kernel vs reference -------------------------------------------------------

// checkHeader decodes the macroblock header at bit offset off of data with
// decodeHeader and with the reference, from the same predictors, and fails
// on any difference: the decision, and whether accepted or refused the
// error, the bit position and sticky error the reader is left with, the
// predictors, and the header fields of the macroblock. It returns the
// kernel's macroblock, state and error.
func checkHeader(t testing.TB, data []byte, off int64, p *PictureParams, in headerState) (MB, headerState, error) {
	t.Helper()
	var want MB
	wantState := in
	rr := bits.NewReader(data)
	rr.SeekBit(off)
	wantErr := refDecodeHeader(rr, p, &wantState, &want)

	var st sliceState
	st.init(p, in.qscale)
	st.pmv = in.pmv
	var got MB
	r := bits.NewReader(data)
	r.SeekBit(off)
	err := st.decodeHeader(r, &got)
	gotState := headerState{pmv: st.pmv, qscale: st.qscale}

	desc := fmt.Sprintf("type %v fcode %v framePredFrameDCT %v off %d data %x state %+v", p.Type, p.FCode, p.FramePredFrameDCT, off, data, in)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: kernel error %v, reference %v", desc, err, wantErr)
	}
	if r.BitPos() != rr.BitPos() || fmt.Sprint(r.Err()) != fmt.Sprint(rr.Err()) {
		t.Fatalf("%s: reader left at bit %d (err %v), reference at %d (err %v)", desc, r.BitPos(), r.Err(), rr.BitPos(), rr.Err())
	}
	if gotState != wantState {
		t.Fatalf("%s: predictors %+v, reference %+v", desc, gotState, wantState)
	}
	if err == nil && got != want {
		t.Fatalf("%s: macroblock\nkernel    %+v\nreference %+v", desc, got, want)
	}
	return got, gotState, err
}

// headerParams returns picture parameters for a header test.
func headerParams(pc vlc.PictureCoding, fcode [2][2]int, framePredFrameDCT bool) *PictureParams {
	return &PictureParams{MBWidth: 4, MBHeight: 4, Type: pc, FCode: fcode, FramePredFrameDCT: framePredFrameDCT}
}

// putHeader writes mb's header the way encodeMB does: type, modes, and the
// vectors the type calls for, differentially through st's predictors.
func putHeader(tb testing.TB, w *bits.Writer, st *sliceState, mb *MB) {
	tb.Helper()
	t := mb.Type
	if err := vlc.EncodeMBType(w, st.p.Type, t); err != nil {
		tb.Fatal(err)
	}
	if !st.p.FramePredFrameDCT {
		if t.MotionForward || t.MotionBackward {
			if mb.FieldMotion {
				w.Put(0b01, 2)
			} else {
				w.Put(0b10, 2)
			}
		}
		if t.Intra || t.Pattern {
			putFlag(w, mb.FieldDCT)
		}
	}
	if t.Quant {
		w.Put(uint32(mb.QScaleCode), 5)
		st.qscale = mb.QScaleCode
	}
	for dir, d := range [2]struct {
		coded   bool
		mv, mv2 motion.MV
		sel     [2]bool
	}{{t.MotionForward, mb.MVFwd, mb.MVFwd2, mb.FieldSelFwd}, {t.MotionBackward, mb.MVBwd, mb.MVBwd2, mb.FieldSelBwd}} {
		if !d.coded {
			continue
		}
		if !mb.FieldMotion {
			if err := st.encodeMV(w, dir, d.mv); err != nil {
				tb.Fatal(err)
			}
			continue
		}
		for rv, v := range [2]motion.MV{d.mv, d.mv2} {
			putFlag(w, d.sel[rv])
			if err := st.encodeVector(w, rv, dir, v, true); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// randomHeader draws a macroblock header codable in a picture of st's type
// with st's f_codes: any type of the picture's table, field or frame motion
// and DCT where the picture allows them, vectors anywhere in range.
func randomHeader(rng *rand.Rand, st *sliceState) MB {
	p := st.p
	types := map[vlc.PictureCoding][]vlc.MBType{
		vlc.CodingI: {{Intra: true}, {Intra: true, Quant: true}},
		vlc.CodingP: {{MotionForward: true, Pattern: true}, {Pattern: true}, {MotionForward: true}, {Intra: true},
			{Quant: true, MotionForward: true, Pattern: true}, {Quant: true, Pattern: true}, {Quant: true, Intra: true}},
		vlc.CodingB: {{MotionForward: true, MotionBackward: true}, {MotionForward: true, MotionBackward: true, Pattern: true},
			{MotionBackward: true}, {MotionBackward: true, Pattern: true}, {MotionForward: true}, {MotionForward: true, Pattern: true},
			{Intra: true}, {Quant: true, MotionForward: true, MotionBackward: true, Pattern: true},
			{Quant: true, MotionForward: true, Pattern: true}, {Quant: true, MotionBackward: true, Pattern: true}, {Quant: true, Intra: true}},
	}[p.Type]
	mb := MB{Type: types[rng.Intn(len(types))], QScaleCode: st.qscale}
	if mb.Type.Quant {
		mb.QScaleCode = 1 + rng.Intn(31)
	}
	if !p.FramePredFrameDCT {
		mb.FieldMotion = (mb.Type.MotionForward || mb.Type.MotionBackward) && rng.Intn(2) == 0
		mb.FieldDCT = (mb.Type.Intra || mb.Type.Pattern) && rng.Intn(2) == 0
	}
	vec := func(dir int) motion.MV {
		var c [2]int
		for t := range c {
			f := 16 << uint(p.FCode[dir][t]-1)
			c[t] = rng.Intn(2*f) - f
		}
		return motion.MV{X: c[0], Y: c[1]}
	}
	if mb.Type.MotionForward {
		mb.MVFwd, mb.MVFwd2 = vec(0), vec(0)
		mb.FieldSelFwd = [2]bool{rng.Intn(2) == 0, rng.Intn(2) == 0}
	}
	if mb.Type.MotionBackward {
		mb.MVBwd, mb.MVBwd2 = vec(1), vec(1)
		mb.FieldSelBwd = [2]bool{rng.Intn(2) == 0, rng.Intn(2) == 0}
	}
	if !mb.FieldMotion {
		mb.MVFwd2, mb.MVBwd2, mb.FieldSelFwd, mb.FieldSelBwd = motion.MV{}, motion.MV{}, [2]bool{}, [2]bool{}
	}
	return mb
}

// randomHeaderParams draws a picture type, four f_codes in 1..9 and the
// frame_pred_frame_dct flag.
func randomHeaderParams(rng *rand.Rand) *PictureParams {
	var fcode [2][2]int
	for dir := range fcode {
		for t := range fcode[dir] {
			fcode[dir][t] = 1 + rng.Intn(9)
		}
	}
	return headerParams(vlc.PictureCoding(1+rng.Intn(3)), fcode, rng.Intn(2) == 0)
}

// randomState draws predictors a slice could have reached under p: every
// PMV inside its f_code's range (vertical ones even, as field vectors
// leave them), any quantiser_scale_code.
func randomState(rng *rand.Rand, p *PictureParams) headerState {
	hs := headerState{qscale: 1 + rng.Intn(31)}
	for rv := range hs.pmv {
		for dir := range hs.pmv[rv] {
			for t := range hs.pmv[rv][dir] {
				f := 16 << uint(p.FCode[dir][t]-1)
				hs.pmv[rv][dir][t] = (rng.Intn(2*f) - f) &^ t
			}
		}
	}
	return hs
}

// TestDecodeHeaderRoundTrip writes random headers of every picture type,
// frame and field, with every f_code, and reads them back: what the kernel
// decodes must be what was written (and what the reference decodes).
func TestDecodeHeaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fields := 0
	for trial := 0; trial < 4000; trial++ {
		p := randomHeaderParams(rng)
		in := randomState(rng, p)
		var st sliceState
		st.init(p, in.qscale)
		st.pmv = in.pmv
		mb := randomHeader(rng, &st)
		var w bits.Writer
		off := int64(rng.Intn(8))
		w.Put(uint32(rng.Intn(256))>>uint(8-off), uint(off)) // the header starts mid-byte
		putHeader(t, &w, &st, &mb)
		w.Put(uint32(rng.Intn(1<<16)), 16) // whatever follows a header
		got, out, err := checkHeader(t, w.Bytes(), off, p, in)
		if err != nil {
			t.Fatalf("trial %d: %+v refused: %v", trial, mb, err)
		}
		if got != mb {
			t.Fatalf("trial %d: decoded %+v, wrote %+v", trial, got, mb)
		}
		if out != (headerState{pmv: st.pmv, qscale: st.qscale}) {
			t.Fatalf("trial %d: decoder predictors %+v, encoder %+v", trial, out, st)
		}
		if mb.FieldMotion {
			fields++
		}
	}
	if fields < 400 {
		t.Fatalf("only %d field-motion headers exercised", fields)
	}
}

// TestDecodeHeaderEveryMotionCode puts every motion_code, with either
// sign, in front of residuals of every width (f_code 1..9: none to eight
// bits, at both ends of their range and in between), in either component
// of a frame and of a field vector. What the component must decode to is
// stated here, not taken from the reference (which is consulted as well).
func TestDecodeHeaderEveryMotionCode(t *testing.T) {
	for fcode := 1; fcode <= 9; fcode++ {
		f := 1 << uint(fcode-1)
		for _, field := range []bool{false, true} {
			p := headerParams(vlc.CodingP, [2][2]int{{fcode, fcode}, {15, 15}}, !field)
			for comp := 0; comp < 2; comp++ {
				for code := -16; code <= 16; code++ {
					for _, residual := range []int{0, f / 3, f - 1} {
						in := headerState{qscale: 5}
						in.pmv[0][0] = [2]int{6, -4}
						var w bits.Writer
						w.Put(0b001, 3) // macroblock_type: forward, not coded
						if field {
							w.Put(0b01, 2) // frame_motion_type: field
							w.Put(1, 1)    // motion_vertical_field_select
						}
						for c := 0; c < 2; c++ {
							mc := 0
							if c == comp {
								mc = code
							}
							if err := vlc.EncodeMotionCode(&w, mc); err != nil {
								t.Fatal(err)
							}
							if mc != 0 && fcode > 1 {
								w.Put(uint32(residual), uint(fcode-1))
							}
						}
						if field {
							w.Put(0b0_1_1, 3) // the bottom field's vector: top select, no change
						}
						got, out, err := checkHeader(t, w.Bytes(), 0, p, in)
						if err != nil {
							t.Fatalf("f_code %d field %v comp %d code %d residual %d: %v", fcode, field, comp, code, residual, err)
						}
						pred := in.pmv[0][0]
						if field {
							pred[1] >>= 1
						}
						want := pred
						if code != 0 {
							mag := code
							if mag < 0 {
								mag = -mag
							}
							delta := (mag-1)*f + residual + 1
							if code < 0 {
								delta = -delta
							}
							want[comp] += delta
							if want[comp] > 16*f-1 {
								want[comp] -= 32 * f
							}
							if want[comp] < -16*f {
								want[comp] += 32 * f
							}
						}
						if got.MVFwd != (motion.MV{X: want[0], Y: want[1]}) || got.FieldMotion != field || got.FieldSelFwd[0] != field {
							t.Fatalf("f_code %d field %v comp %d code %d residual %d: decoded %+v select %v, want %v",
								fcode, field, comp, code, residual, got.MVFwd, got.FieldSelFwd, want)
						}
						if field {
							want[1] *= 2
						}
						if out.pmv[0][0] != want || (!field && out.pmv[1][0] != want) {
							t.Fatalf("f_code %d field %v comp %d code %d residual %d: predictors %v, want %v", fcode, field, comp, code, residual, out.pmv, want)
						}
					}
				}
			}
		}
	}
}

// TestDecodeHeaderIrregular feeds the kernel what its window declines — no
// type matches, reserved and dual-prime frame_motion_type,
// quantiser_scale_code 0, an invalid f_code in a direction that is coded
// (and one in a direction that is not), an invalid motion_code, a picture
// coding type that is none of I, P and B — and checks
// each refusal is the per-symbol reader's, byte for byte.
func TestDecodeHeaderIrregular(t *testing.T) {
	ok := [2][2]int{{2, 2}, {2, 2}}
	in := headerState{qscale: 7}
	for _, c := range []struct {
		name   string
		p      *PictureParams
		bits   uint32
		n      uint
		accept bool
	}{
		{"no macroblock_type", headerParams(vlc.CodingP, ok, true), 0b0000000, 7, false},
		{"reserved frame_motion_type", headerParams(vlc.CodingP, ok, false), 0b001_00, 5, false},
		{"dual prime", headerParams(vlc.CodingP, ok, false), 0b001_11, 5, false},
		{"quantiser_scale_code 0", headerParams(vlc.CodingI, ok, true), 0b01_00000, 7, false},
		{"invalid f_code, coded direction", headerParams(vlc.CodingP, [2][2]int{{2, 15}, {2, 2}}, true), 0b001_1_1, 5, false},
		{"invalid f_code, first component", headerParams(vlc.CodingP, [2][2]int{{0, 2}, {2, 2}}, true), 0b001_1_1, 5, false},
		{"invalid f_code, uncoded direction", headerParams(vlc.CodingP, [2][2]int{{2, 2}, {15, 15}}, true), 0b001_1_1, 5, true},
		{"invalid motion_code", headerParams(vlc.CodingP, ok, true), 0b001_1_00000000000, 15, false},
		// No stream gets these past ParsePictureHeader and no caller past
		// PictureParams.validate; a window table indexed by the low bits of
		// the type would read them as I, P and B.
		{"picture coding type 0", headerParams(0, ok, true), 0b1_000000, 7, false},
		{"picture coding type 4", headerParams(4, ok, true), 0b1_000000, 7, false},
		{"picture coding type 5", headerParams(5, ok, true), 0b1_000000, 7, false},
		{"picture coding type 6", headerParams(6, ok, true), 0b1_1_1_0000, 7, false},
		{"picture coding type 7", headerParams(7, ok, true), 0b10_1_1_1_1_0, 7, false},
	} {
		var w bits.Writer
		w.Put(c.bits, c.n)
		w.Put(0xFFFF, 16)
		if _, _, err := checkHeader(t, w.Bytes(), 0, c.p, in); (err == nil) != c.accept {
			t.Fatalf("%s: error %v, want accepted=%v", c.name, err, c.accept)
		}
	}
}

// TestDecodeHeaderTail ends a valid header at the end of the buffer, where
// the window can no longer be loaded with one 8-byte read and is zero-filled
// instead, and then cuts the buffer short at every byte inside its last
// nine: whole, the header must decode; cut, it must fare exactly as with
// the reference, which mostly means an underflow.
func TestDecodeHeaderTail(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	refused := 0
	for trial := 0; trial < 2000; trial++ {
		p := randomHeaderParams(rng)
		in := randomState(rng, p)
		var st sliceState
		st.init(p, in.qscale)
		st.pmv = in.pmv
		mb := randomHeader(rng, &st)
		var w bits.Writer
		w.Put(uint32(rng.Intn(1<<24)), 24) // so that there are bytes to cut
		w.Put(uint32(rng.Intn(1<<24)), 24)
		hdr := w
		putHeader(t, &hdr, &st, &mb)
		// Shift the header so that its last bit is the buffer's last.
		pad := uint(8-hdr.BitsWritten()%8) % 8
		w.Put(uint32(rng.Intn(256))>>(8-pad), pad)
		off := int64(w.BitsWritten())
		st.init(p, in.qscale)
		st.pmv = in.pmv
		putHeader(t, &w, &st, &mb)
		data := w.Bytes()
		if int64(len(data))*8 != int64(w.BitsWritten()) {
			t.Fatalf("trial %d: header ends at bit %d of %d", trial, w.BitsWritten(), len(data)*8)
		}
		if _, _, err := checkHeader(t, data, off, p, in); err != nil {
			t.Fatalf("trial %d: whole header refused: %v", trial, err)
		}
		for cut := len(data) - 1; cut >= len(data)-9 && cut >= 0; cut-- {
			if _, _, err := checkHeader(t, data[:cut:cut], min(off, int64(cut)*8), p, in); err != nil {
				refused++
			}
		}
	}
	if refused < 2000 {
		t.Fatalf("only %d truncations were refused", refused)
	}
}

// FuzzDecodeMBHeader: arbitrary bytes from any starting bit, every picture
// type, any f_code per slot (valid or not), frame_pred_frame_dct either
// way — which with the bytes decides frame or field motion — from arbitrary
// predictors.
func FuzzDecodeMBHeader(f *testing.F) {
	f.Add([]byte{0x80}, uint8(1), uint16(0x1111), false, uint16(0), int64(1))
	f.Add([]byte{0x2d, 0x6b, 0x5a, 0xd6, 0xb5}, uint8(3), uint16(0x2345), false, uint16(0), int64(2))
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}, uint8(2), uint16(0x9999), true, uint16(3), int64(3))
	f.Add([]byte{0x3f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(3), uint16(0x9f19), false, uint16(1), int64(4))
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 24; i++ { // valid headers, so mutation starts inside the syntax
		p := randomHeaderParams(rng)
		var st sliceState
		st.init(p, 9)
		mb := randomHeader(rng, &st)
		var w bits.Writer
		putHeader(f, &w, &st, &mb)
		fc := p.FCode
		f.Add(w.Bytes(), uint8(p.Type), uint16(fc[0][0]|fc[0][1]<<4|fc[1][0]<<8|fc[1][1]<<12), p.FramePredFrameDCT, uint16(0), int64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, pic uint8, fcodes uint16, framePredFrameDCT bool, off uint16, seed int64) {
		var fcode [2][2]int
		for i := 0; i < 4; i++ {
			fcode[i/2][i%2] = int(fcodes >> uint(4*i) & 15) // 0 and 10..15 are invalid
		}
		p := headerParams(vlc.PictureCoding(1+int(pic)%3), fcode, framePredFrameDCT)
		rng := rand.New(rand.NewSource(seed))
		in := headerState{qscale: 1 + rng.Intn(31)}
		for rv := range in.pmv {
			for dir := range in.pmv[rv] {
				in.pmv[rv][dir] = [2]int{rng.Intn(8192) - 4096, rng.Intn(8192) - 4096}
			}
		}
		checkHeader(t, data, min(int64(off), int64(len(data))*8), p, in)
	})
}
