package decoder

import (
	"errors"
	"fmt"
	"io"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/vlc"
)

// Decoder decodes an MPEG-2 video elementary stream sequentially,
// returning frames in display order. It is the correctness oracle the
// parallel implementations are tested against, and the P=1 baseline of
// the speedup measurements.
type Decoder struct {
	r   *bits.Reader
	Seq mpeg2.SequenceHeader

	// Conceal makes slice errors non-fatal: damaged slices are skipped
	// and their macroblocks concealed from the reference picture.
	Conceal bool

	refOld, refNew *frame.Frame // reference frames in decode order
	held           *frame.Frame // reference awaiting display
	out            []*frame.Frame
	displayIdx     int
	done           bool
	mbScratch      []mpeg2.MB // macroblock buffer recycled across slices
	rec            Scratch    // dequantization tables recycled across slices

	// Work accumulates reconstruction work counters across the stream.
	Work WorkStats
	// Pictures counts decoded pictures.
	Pictures int
	// Concealed counts macroblocks recovered by concealment.
	Concealed int
}

// New parses up to and including the first sequence header and returns a
// ready decoder.
func New(data []byte) (*Decoder, error) {
	d := &Decoder{r: bits.NewReader(data)}
	for {
		code, err := d.r.NextStartCode()
		if err != nil {
			return nil, fmt.Errorf("decoder: no sequence header: %w", err)
		}
		d.r.Skip(32)
		if code == mpeg2.SequenceHeaderCode {
			seq, err := mpeg2.ParseSequenceHeader(d.r)
			if err != nil {
				return nil, err
			}
			d.Seq = seq
			return d, nil
		}
	}
}

// Next returns the next frame in display order, or io.EOF after the last.
func (d *Decoder) Next() (*frame.Frame, error) {
	for len(d.out) == 0 {
		if d.done {
			return nil, io.EOF
		}
		if err := d.step(); err != nil {
			return nil, err
		}
	}
	f := d.out[0]
	d.out = d.out[1:]
	f.DisplayIndex = d.displayIdx
	d.displayIdx++
	return f, nil
}

// All decodes the remaining stream and returns every frame in display
// order.
func (d *Decoder) All() ([]*frame.Frame, error) {
	var fs []*frame.Frame
	for {
		f, err := d.Next()
		if errors.Is(err, io.EOF) {
			return fs, nil
		}
		if err != nil {
			return fs, err
		}
		fs = append(fs, f)
	}
}

// step advances past one syntactic unit (picture, header, or end).
func (d *Decoder) step() error {
	code, err := d.r.NextStartCode()
	if err != nil {
		// Stream ended without a sequence_end_code: flush anyway.
		d.flush()
		d.done = true
		return nil
	}
	d.r.Skip(32)
	switch {
	case code == mpeg2.SequenceHeaderCode:
		seq, err := mpeg2.ParseSequenceHeader(d.r)
		if err != nil {
			return err
		}
		if seq.Width != d.Seq.Width || seq.Height != d.Seq.Height {
			return fmt.Errorf("decoder: mid-stream size change %dx%d -> %dx%d",
				d.Seq.Width, d.Seq.Height, seq.Width, seq.Height)
		}
		d.Seq = seq
	case code == mpeg2.GroupStartCode:
		if _, err := mpeg2.ParseGOPHeader(d.r); err != nil {
			return err
		}
	case code == mpeg2.PictureStartCode:
		return d.decodePicture()
	case code == mpeg2.SequenceEndCode:
		d.flush()
		d.done = true
	case code == mpeg2.UserDataStartCode || code == mpeg2.ExtensionStartCode:
		// Skipped; NextStartCode will pass over the payload.
	}
	return nil
}

func (d *Decoder) flush() {
	if d.held != nil {
		d.out = append(d.out, d.held)
		d.held = nil
	}
}

func (d *Decoder) decodePicture() error {
	ph, err := mpeg2.ParsePictureHeader(d.r)
	if err != nil {
		return err
	}
	dst := frame.New(d.Seq.Width, d.Seq.Height)
	dst.PictureType = "?IPB"[int(ph.Type)]
	dst.TemporalRef = ph.TemporalReference

	refs := Refs{}
	switch ph.Type {
	case vlc.CodingP:
		refs.Fwd = d.refNew
	case vlc.CodingB:
		refs.Fwd, refs.Bwd = d.refOld, d.refNew
	}

	params := PictureParams(&d.Seq, &ph)
	cov := newCoverage(params.MBWidth, params.MBHeight)
	for {
		code, err := d.r.NextStartCode()
		if err != nil {
			break // picture data ends with the stream
		}
		if code < mpeg2.SliceStartMin || code > mpeg2.SliceStartMax {
			break
		}
		d.r.Skip(32)
		ds, err := mpeg2.DecodeSliceInto(d.r, &params, int(code)-1, d.mbScratch)
		d.mbScratch = ds.MBs // keep the grown buffer for the next slice
		if err == nil {
			var w WorkStats
			w, err = d.rec.ReconSlice(&d.Seq, &ph, refs, dst, &ds)
			d.Work.Add(w)
			if err == nil {
				cov.markSlice(&ds)
			}
		}
		if err != nil {
			if !d.Conceal {
				return err
			}
			// Skip the damaged slice; NextStartCode resynchronizes.
		}
	}
	if cov.n < params.MBWidth*params.MBHeight {
		if !d.Conceal {
			return fmt.Errorf("decoder: %s picture %d covered %d of %d macroblocks",
				ph.Type, ph.TemporalReference, cov.n, params.MBWidth*params.MBHeight)
		}
		d.Concealed += cov.concealMissing(dst, refs)
	}
	d.Pictures++

	if ph.Type == vlc.CodingB {
		d.out = append(d.out, dst)
		return nil
	}
	// New reference picture: the previously held reference is now safe to
	// display, and the reference window slides.
	d.flush()
	d.held = dst
	d.refOld, d.refNew = d.refNew, dst
	return nil
}
