package mpeg2

import (
	"fmt"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/quant"
	"mpeg2par/internal/vlc"
)

// SequenceHeader carries the sequence header (§6.2.2.1) and the MPEG-2
// sequence extension (§6.2.2.3) we always emit right after it.
type SequenceHeader struct {
	Width, Height int
	AspectRatio   int // aspect_ratio_information code, 1 = square pixels
	FrameRate     int // frame_rate_code
	BitRate       int // in 400 bit/s units
	VBVBufferSize int // in 16 kbit units

	LoadIntraMatrix    bool
	LoadNonIntraMatrix bool
	IntraMatrix        [64]uint8 // valid; defaults filled on parse/normalize
	NonIntraMatrix     [64]uint8

	// Sequence extension fields.
	ProfileLevel uint8
	Progressive  bool
	ChromaFormat int
	LowDelay     bool
}

// Normalize fills default matrices and field defaults for encoding.
func (h *SequenceHeader) Normalize() {
	if !h.LoadIntraMatrix {
		h.IntraMatrix = quant.DefaultIntraMatrix
	}
	if !h.LoadNonIntraMatrix {
		h.NonIntraMatrix = quant.DefaultNonIntraMatrix
	}
	if h.AspectRatio == 0 {
		h.AspectRatio = 1
	}
	if h.FrameRate == 0 {
		h.FrameRate = 5 // 30 fps
	}
	if h.ChromaFormat == 0 {
		h.ChromaFormat = Chroma420
	}
	if h.ProfileLevel == 0 {
		h.ProfileLevel = MainProfileHighLevel
	}
	if h.VBVBufferSize == 0 {
		h.VBVBufferSize = 112
	}
}

// MBWidth returns the picture width in macroblocks.
func (h *SequenceHeader) MBWidth() int { return (h.Width + 15) / 16 }

// MBHeight returns the picture height in macroblocks (frame pictures).
func (h *SequenceHeader) MBHeight() int { return (h.Height + 15) / 16 }

// Write emits the sequence header followed by the sequence extension.
func (h *SequenceHeader) Write(w *bits.Writer) {
	h.Normalize()
	w.StartCode(SequenceHeaderCode)
	w.Put(uint32(h.Width&0xFFF), 12)
	w.Put(uint32(h.Height&0xFFF), 12)
	w.Put(uint32(h.AspectRatio), 4)
	w.Put(uint32(h.FrameRate), 4)
	w.Put(uint32(h.BitRate&0x3FFFF), 18)
	w.Put(1, 1) // marker
	w.Put(uint32(h.VBVBufferSize&0x3FF), 10)
	w.Put(0, 1) // constrained_parameters_flag
	if h.LoadIntraMatrix {
		w.Put(1, 1)
		writeMatrix(w, &h.IntraMatrix)
	} else {
		w.Put(0, 1)
	}
	if h.LoadNonIntraMatrix {
		w.Put(1, 1)
		writeMatrix(w, &h.NonIntraMatrix)
	} else {
		w.Put(0, 1)
	}

	// Sequence extension: its presence is what marks the stream as MPEG-2.
	w.StartCode(ExtensionStartCode)
	w.Put(SequenceExtensionID, 4)
	w.Put(uint32(h.ProfileLevel), 8)
	putFlag(w, h.Progressive)
	w.Put(uint32(h.ChromaFormat), 2)
	w.Put(uint32(h.Width>>12), 2)  // horizontal_size_extension
	w.Put(uint32(h.Height>>12), 2) // vertical_size_extension
	w.Put(uint32(h.BitRate>>18), 12)
	w.Put(1, 1) // marker
	w.Put(uint32(h.VBVBufferSize>>10), 8)
	putFlag(w, h.LowDelay)
	w.Put(0, 2) // frame_rate_extension_n
	w.Put(0, 5) // frame_rate_extension_d
}

// maxWidth and maxHeight bound the picture size a sequence header may
// claim: the upper bounds of Main Profile @ High Level, the most a Main
// Profile stream can carry. The syntax alone allows 16383×16383 (some
// 400 MB a frame), so without the bound a dozen hostile header bytes could
// make a decode allocate that.
const maxWidth, maxHeight = 1920, 1152

// ParseSequenceHeader parses a sequence header; the reader must be
// positioned just after the sequence_header_code. It also parses the
// sequence extension if one follows immediately, and rejects a picture
// size above Main Profile @ High Level.
func ParseSequenceHeader(r *bits.Reader) (SequenceHeader, error) {
	var h SequenceHeader
	h.Width = int(r.Read(12))
	h.Height = int(r.Read(12))
	h.AspectRatio = int(r.Read(4))
	h.FrameRate = int(r.Read(4))
	h.BitRate = int(r.Read(18))
	if r.Read(1) != 1 {
		return h, fmt.Errorf("mpeg2: sequence header marker bit missing")
	}
	h.VBVBufferSize = int(r.Read(10))
	r.Skip(1) // constrained_parameters_flag
	h.LoadIntraMatrix = r.ReadBit()
	if h.LoadIntraMatrix {
		readMatrix(r, &h.IntraMatrix)
	} else {
		h.IntraMatrix = quant.DefaultIntraMatrix
	}
	h.LoadNonIntraMatrix = r.ReadBit()
	if h.LoadNonIntraMatrix {
		readMatrix(r, &h.NonIntraMatrix)
	} else {
		h.NonIntraMatrix = quant.DefaultNonIntraMatrix
	}
	if err := r.Err(); err != nil {
		return h, fmt.Errorf("mpeg2: sequence header: %w", err)
	}

	// Peek for the sequence extension.
	save := r.BitPos()
	if code, err := r.NextStartCode(); err == nil && code == ExtensionStartCode {
		r.Skip(32)
		if r.Peek(4) == SequenceExtensionID {
			r.Skip(4)
			h.ProfileLevel = uint8(r.Read(8))
			h.Progressive = r.ReadBit()
			h.ChromaFormat = int(r.Read(2))
			h.Width |= int(r.Read(2)) << 12
			h.Height |= int(r.Read(2)) << 12
			h.BitRate |= int(r.Read(12)) << 18
			r.Skip(1) // marker
			h.VBVBufferSize |= int(r.Read(8)) << 10
			h.LowDelay = r.ReadBit()
			r.Skip(7) // frame rate extensions
		} else {
			r.SeekBit(save)
		}
	} else {
		r.SeekBit(save)
	}
	if h.Width <= 0 || h.Height <= 0 {
		return h, fmt.Errorf("mpeg2: invalid picture size %dx%d", h.Width, h.Height)
	}
	if h.Width > maxWidth || h.Height > maxHeight {
		return h, fmt.Errorf("mpeg2: picture size %dx%d exceeds Main Profile @ High Level (%dx%d)",
			h.Width, h.Height, maxWidth, maxHeight)
	}
	if h.ChromaFormat != 0 && h.ChromaFormat != Chroma420 {
		return h, fmt.Errorf("mpeg2: unsupported chroma format %d", h.ChromaFormat)
	}
	return h, r.Err()
}

func writeMatrix(w *bits.Writer, m *[64]uint8) {
	// Matrices are transmitted in zigzag order.
	for pos := 0; pos < 64; pos++ {
		w.Put(uint32(m[zig(pos)]), 8)
	}
}

func readMatrix(r *bits.Reader, m *[64]uint8) {
	for pos := 0; pos < 64; pos++ {
		m[zig(pos)] = uint8(r.Read(8))
	}
}

// GOPHeader is the group_of_pictures header (§6.2.2.6).
type GOPHeader struct {
	TimeCode   uint32 // 25-bit SMPTE time code
	Closed     bool
	BrokenLink bool
}

// Write emits the GOP header.
func (g *GOPHeader) Write(w *bits.Writer) {
	w.StartCode(GroupStartCode)
	w.Put(g.TimeCode&0x1FFFFFF, 25)
	putFlag(w, g.Closed)
	putFlag(w, g.BrokenLink)
}

// ParseGOPHeader parses a GOP header; the reader must be positioned just
// after the group_start_code.
func ParseGOPHeader(r *bits.Reader) (GOPHeader, error) {
	var g GOPHeader
	g.TimeCode = r.Read(25)
	g.Closed = r.ReadBit()
	g.BrokenLink = r.ReadBit()
	return g, r.Err()
}

// PictureHeader carries the picture header (§6.2.3) and the picture coding
// extension (§6.2.3.1).
type PictureHeader struct {
	TemporalReference int
	Type              vlc.PictureCoding
	VBVDelay          int

	// Picture coding extension.
	FCode             [2][2]int // [s][t]: s 0=forward 1=backward, t 0=horizontal 1=vertical; 15 = unused
	IntraDCPrecision  int
	PictureStructure  int
	TopFieldFirst     bool
	FramePredFrameDCT bool
	ConcealmentMV     bool
	QScaleType        bool // non-linear quantiser scale
	IntraVLCFormat    bool // table one for intra blocks
	AlternateScan     bool
	RepeatFirstField  bool
	ProgressiveFrame  bool
}

// Write emits the picture header and picture coding extension.
func (p *PictureHeader) Write(w *bits.Writer) {
	w.StartCode(PictureStartCode)
	w.Put(uint32(p.TemporalReference&0x3FF), 10)
	w.Put(uint32(p.Type), 3)
	w.Put(uint32(p.VBVDelay&0xFFFF), 16)
	if p.Type == vlc.CodingP || p.Type == vlc.CodingB {
		w.Put(0, 1) // full_pel_forward_vector (MPEG-1 legacy, 0 in MPEG-2)
		w.Put(7, 3) // forward_f_code (unused in MPEG-2, must be 111)
	}
	if p.Type == vlc.CodingB {
		w.Put(0, 1)
		w.Put(7, 3)
	}
	w.Put(0, 1) // extra_bit_picture

	w.StartCode(ExtensionStartCode)
	w.Put(PictureCodingExtensionID, 4)
	for s := 0; s < 2; s++ {
		for t := 0; t < 2; t++ {
			w.Put(uint32(p.FCode[s][t]&0xF), 4)
		}
	}
	w.Put(uint32(p.IntraDCPrecision), 2)
	w.Put(uint32(p.PictureStructure), 2)
	putFlag(w, p.TopFieldFirst)
	putFlag(w, p.FramePredFrameDCT)
	putFlag(w, p.ConcealmentMV)
	putFlag(w, p.QScaleType)
	putFlag(w, p.IntraVLCFormat)
	putFlag(w, p.AlternateScan)
	putFlag(w, p.RepeatFirstField)
	w.Put(0, 1) // chroma_420_type
	putFlag(w, p.ProgressiveFrame)
	w.Put(0, 1) // composite_display_flag
}

// ParsePictureHeader parses a picture header; the reader must be
// positioned just after the picture_start_code. It also parses the
// picture coding extension that must follow in MPEG-2.
func ParsePictureHeader(r *bits.Reader) (PictureHeader, error) {
	var p PictureHeader
	p.TemporalReference = int(r.Read(10))
	p.Type = vlc.PictureCoding(r.Read(3))
	if p.Type < vlc.CodingI || p.Type > vlc.CodingB {
		return p, fmt.Errorf("mpeg2: unsupported picture coding type %d", int(p.Type))
	}
	p.VBVDelay = int(r.Read(16))
	if p.Type == vlc.CodingP || p.Type == vlc.CodingB {
		r.Skip(4)
	}
	if p.Type == vlc.CodingB {
		r.Skip(4)
	}
	// extra_information_picture: skip (extra_bit_picture, extra byte)*.
	for r.ReadBit() {
		r.Skip(8)
	}
	if err := r.Err(); err != nil {
		return p, fmt.Errorf("mpeg2: picture header: %w", err)
	}

	code, err := r.NextStartCode()
	if err != nil || code != ExtensionStartCode {
		return p, fmt.Errorf("mpeg2: picture coding extension missing (next code %#x)", code)
	}
	r.Skip(32)
	if id := r.Read(4); id != PictureCodingExtensionID {
		return p, fmt.Errorf("mpeg2: expected picture coding extension, got id %d", id)
	}
	for s := 0; s < 2; s++ {
		for t := 0; t < 2; t++ {
			p.FCode[s][t] = int(r.Read(4))
		}
	}
	p.IntraDCPrecision = int(r.Read(2))
	p.PictureStructure = int(r.Read(2))
	p.TopFieldFirst = r.ReadBit()
	p.FramePredFrameDCT = r.ReadBit()
	p.ConcealmentMV = r.ReadBit()
	p.QScaleType = r.ReadBit()
	p.IntraVLCFormat = r.ReadBit()
	p.AlternateScan = r.ReadBit()
	p.RepeatFirstField = r.ReadBit()
	r.Skip(1) // chroma_420_type
	p.ProgressiveFrame = r.ReadBit()
	if r.ReadBit() { // composite_display_flag
		r.Skip(20)
	}
	if err := r.Err(); err != nil {
		return p, fmt.Errorf("mpeg2: picture coding extension: %w", err)
	}
	if p.PictureStructure != FramePicture {
		return p, fmt.Errorf("mpeg2: field pictures not supported (structure %d)", p.PictureStructure)
	}
	if p.ConcealmentMV {
		return p, fmt.Errorf("mpeg2: concealment motion vectors not supported")
	}
	return p, nil
}

func putFlag(w *bits.Writer, b bool) {
	if b {
		w.Put(1, 1)
	} else {
		w.Put(0, 1)
	}
}
