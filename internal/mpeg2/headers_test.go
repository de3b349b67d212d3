package mpeg2

import (
	"fmt"
	"strings"
	"testing"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/quant"
	"mpeg2par/internal/vlc"
)

func TestFrameRateCode(t *testing.T) {
	if FrameRateCode(30) != 5 {
		t.Errorf("30fps code = %d, want 5", FrameRateCode(30))
	}
	if FrameRateCode(25) != 3 {
		t.Errorf("25fps code = %d, want 3", FrameRateCode(25))
	}
	if FrameRateCode(23.976) != 1 {
		t.Errorf("23.976fps code = %d, want 1", FrameRateCode(23.976))
	}
}

func TestMVRangeAndFCode(t *testing.T) {
	if MVRangeHalf(1) != 16 || MVRangeHalf(2) != 32 || MVRangeHalf(4) != 128 {
		t.Fatal("MVRangeHalf wrong")
	}
	if MVRangeHalf(0) != 16 {
		t.Fatal("MVRangeHalf should clamp f_code to 1")
	}
	for _, c := range []struct{ maxHalf, want int }{
		{0, 1}, {15, 1}, {16, 2}, {31, 2}, {32, 3}, {100, 4}, {127, 4}, {128, 5},
	} {
		if got := FCodeFor(c.maxHalf); got != c.want {
			t.Errorf("FCodeFor(%d) = %d, want %d", c.maxHalf, got, c.want)
		}
	}
}

func TestSequenceHeaderRoundTrip(t *testing.T) {
	h := SequenceHeader{
		Width:         704,
		Height:        480,
		BitRate:       5_000_000 / 400,
		FrameRate:     5,
		Progressive:   true,
		LowDelay:      false,
		VBVBufferSize: 112,
	}
	var w bits.Writer
	h.Write(&w)
	data := w.Bytes()

	r := bits.NewReader(data)
	code, err := r.ReadStartCode()
	if err != nil || code != SequenceHeaderCode {
		t.Fatalf("startcode %x err %v", code, err)
	}
	got, err := ParseSequenceHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 704 || got.Height != 480 || got.BitRate != h.BitRate {
		t.Fatalf("parsed %+v", got)
	}
	if !got.Progressive || got.ChromaFormat != Chroma420 {
		t.Fatalf("extension fields lost: %+v", got)
	}
	if got.IntraMatrix != quant.DefaultIntraMatrix {
		t.Fatal("default intra matrix not applied")
	}
	if got.MBWidth() != 44 || got.MBHeight() != 30 {
		t.Fatalf("MB geometry %dx%d", got.MBWidth(), got.MBHeight())
	}
}

func TestSequenceHeaderCustomMatrix(t *testing.T) {
	h := SequenceHeader{Width: 176, Height: 120, LoadIntraMatrix: true}
	for i := range h.IntraMatrix {
		h.IntraMatrix[i] = uint8(8 + i%32)
	}
	want := h.IntraMatrix
	var w bits.Writer
	h.Write(&w)
	r := bits.NewReader(w.Bytes())
	if _, err := r.ReadStartCode(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSequenceHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.IntraMatrix != want {
		t.Fatal("custom intra matrix mangled")
	}
	if got.NonIntraMatrix != quant.DefaultNonIntraMatrix {
		t.Fatal("non-intra default missing")
	}
}

func TestSequenceHeaderLargeDims(t *testing.T) {
	// 1408x960 and the Main Profile @ High Level bound 1920x1152 exercise
	// the 12-bit base fields; anything larger is rejected, with the size
	// named — at >4095 only the extension bits can carry it.
	for _, dims := range [][2]int{{1408, 960}, {1920, 1152}, {1921, 1088}, {1920, 1153}, {5000, 2000}} {
		h := SequenceHeader{Width: dims[0], Height: dims[1]}
		var w bits.Writer
		h.Write(&w)
		r := bits.NewReader(w.Bytes())
		if _, err := r.ReadStartCode(); err != nil {
			t.Fatal(err)
		}
		got, err := ParseSequenceHeader(r)
		if dims[0] > maxWidth || dims[1] > maxHeight {
			if size := fmt.Sprintf("%dx%d", dims[0], dims[1]); err == nil || !strings.Contains(err.Error(), size) {
				t.Fatalf("%s: err %v, want a rejection naming the size", size, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.Width != dims[0] || got.Height != dims[1] {
			t.Fatalf("%v parsed as %dx%d", dims, got.Width, got.Height)
		}
	}
}

func TestGOPHeaderRoundTrip(t *testing.T) {
	g := GOPHeader{TimeCode: 12345, Closed: true, BrokenLink: false}
	var w bits.Writer
	g.Write(&w)
	r := bits.NewReader(w.Bytes())
	code, err := r.ReadStartCode()
	if err != nil || code != GroupStartCode {
		t.Fatalf("startcode %x err %v", code, err)
	}
	got, err := ParseGOPHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Fatalf("got %+v want %+v", got, g)
	}
}

func TestPictureHeaderRoundTrip(t *testing.T) {
	for _, typ := range []vlc.PictureCoding{vlc.CodingI, vlc.CodingP, vlc.CodingB} {
		p := PictureHeader{
			TemporalReference: 7,
			Type:              typ,
			VBVDelay:          0xFFFF,
			FCode:             [2][2]int{{3, 2}, {2, 2}},
			IntraDCPrecision:  1,
			PictureStructure:  FramePicture,
			FramePredFrameDCT: true,
			TopFieldFirst:     true,
			ProgressiveFrame:  true,
			QScaleType:        true,
			IntraVLCFormat:    typ == vlc.CodingI,
		}
		var w bits.Writer
		p.Write(&w)
		r := bits.NewReader(w.Bytes())
		code, err := r.ReadStartCode()
		if err != nil || code != PictureStartCode {
			t.Fatalf("startcode %x err %v", code, err)
		}
		got, err := ParsePictureHeader(r)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if got != p {
			t.Fatalf("%s: got %+v want %+v", typ, got, p)
		}
	}
}

func TestParsePictureHeaderRejectsBadType(t *testing.T) {
	var w bits.Writer
	w.Put(0, 10) // temporal ref
	w.Put(0, 3)  // type 0: invalid
	w.Put(0, 16)
	r := bits.NewReader(w.Bytes())
	if _, err := ParsePictureHeader(r); err == nil {
		t.Fatal("type 0 must be rejected")
	}
}

func TestParsePictureHeaderRequiresExtension(t *testing.T) {
	p := PictureHeader{Type: vlc.CodingI, PictureStructure: FramePicture, FramePredFrameDCT: true}
	var w bits.Writer
	// Write only the picture header part, then a sequence end code.
	w.StartCode(PictureStartCode)
	w.Put(uint32(p.TemporalReference), 10)
	w.Put(uint32(p.Type), 3)
	w.Put(0, 16)
	w.Put(0, 1)
	w.StartCode(SequenceEndCode)
	r := bits.NewReader(w.Bytes())
	if _, err := r.ReadStartCode(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePictureHeader(r); err == nil {
		t.Fatal("missing picture coding extension must be rejected")
	}
}

func TestParsePictureHeaderRejectsFieldPictures(t *testing.T) {
	p := PictureHeader{
		Type: vlc.CodingI, PictureStructure: TopField,
		FramePredFrameDCT: true, FCode: [2][2]int{{15, 15}, {15, 15}},
	}
	var w bits.Writer
	p.Write(&w)
	r := bits.NewReader(w.Bytes())
	if _, err := r.ReadStartCode(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePictureHeader(r); err == nil {
		t.Fatal("field picture must be rejected")
	}
}

func TestParseSequenceHeaderTruncated(t *testing.T) {
	h := SequenceHeader{Width: 352, Height: 240}
	var w bits.Writer
	h.Write(&w)
	data := w.Bytes()
	r := bits.NewReader(data[:6])
	if _, err := r.ReadStartCode(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSequenceHeader(r); err == nil {
		t.Fatal("truncated header must error")
	}
}
