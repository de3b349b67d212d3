package decoder

import (
	"errors"
	"io"
	"testing"

	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/memtrace"
)

func testStream(t *testing.T, cfg encoder.Config) *encoder.Result {
	t.Helper()
	res, err := encoder.EncodeSequence(cfg, frame.NewSynth(cfg.Width, cfg.Height))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewRejectsGarbage(t *testing.T) {
	if _, err := New([]byte{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("garbage must fail")
	}
	if _, err := New(nil); err == nil {
		t.Fatal("empty must fail")
	}
}

func TestNextAfterEOF(t *testing.T) {
	res := testStream(t, encoder.Config{Width: 64, Height: 48, Pictures: 1, GOPSize: 1})
	d, err := New(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
	if _, err := d.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("EOF must be sticky, got %v", err)
	}
}

func TestDisplayIndexSequential(t *testing.T) {
	res := testStream(t, encoder.Config{Width: 64, Height: 48, Pictures: 8, GOPSize: 4})
	d, err := New(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := d.All()
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fs {
		if f.DisplayIndex != i {
			t.Fatalf("frame %d has DisplayIndex %d", i, f.DisplayIndex)
		}
	}
	if d.Pictures != 8 {
		t.Fatalf("Pictures = %d", d.Pictures)
	}
	if d.Work.MBs != 8*4*3 {
		t.Fatalf("Work.MBs = %d, want %d", d.Work.MBs, 8*4*3)
	}
}

func TestWorkStatsPopulated(t *testing.T) {
	res := testStream(t, encoder.Config{Width: 96, Height: 64, Pictures: 4, GOPSize: 4})
	d, err := New(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.All(); err != nil {
		t.Fatal(err)
	}
	w := d.Work
	if w.IntraBlocks == 0 || w.Coefs == 0 {
		t.Fatalf("intra work not counted: %+v", w)
	}
	if w.PredMBs == 0 {
		t.Fatalf("prediction work not counted: %+v", w)
	}
}

func TestCorruptedStreamsNeverPanic(t *testing.T) {
	res := testStream(t, encoder.Config{Width: 96, Height: 64, Pictures: 7, GOPSize: 7})
	data := res.Data
	// Flip bytes at many positions; decode must return (error or short
	// output), never panic or loop forever.
	for pos := 20; pos < len(data); pos += 37 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x5A
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic decoding corruption at byte %d: %v", pos, r)
				}
			}()
			d, err := New(mut)
			if err != nil {
				return
			}
			for i := 0; i < 20; i++ {
				if _, err := d.Next(); err != nil {
					return
				}
			}
		}()
	}
}

func TestTruncatedStreamsNeverPanic(t *testing.T) {
	res := testStream(t, encoder.Config{Width: 64, Height: 48, Pictures: 4, GOPSize: 4})
	for cut := 0; cut < len(res.Data); cut += 11 {
		d, err := New(res.Data[:cut])
		if err != nil {
			continue
		}
		for {
			if _, err := d.Next(); err != nil {
				break
			}
		}
	}
}

// TestTracerReceivesReferences reconstructs every predicted macroblock
// shape through ReconSlice with a tracer: every replayed event is on the
// processor asked for, there are reads and writes, and at least every
// macroblock's pixels are written and each prediction direction's read.
func TestTracerReceivesReferences(t *testing.T) {
	for _, c := range reconCases {
		seq, ph, refs, ds := reconFixture(c, 5)
		rec := memtrace.NewRecorder()
		if _, err := ReconSlice(seq, ph, refs, frame.New(reconW, reconH), ds, 3, rec); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var read, written int
		for _, e := range rec.Events() {
			if e.Proc != 3 {
				t.Fatalf("%s: event proc %d, want 3", c.name, e.Proc)
			}
			if e.Write {
				written += int(e.Size)
			} else {
				read += int(e.Size)
			}
		}
		dirs := 1
		if c.typ.MotionForward && c.typ.MotionBackward {
			dirs = 2
		}
		mbBytes := len(ds.MBs) * (256 + 128)
		if written < mbBytes || read < dirs*mbBytes {
			t.Fatalf("%s: read %d written %d bytes, want at least %d and %d", c.name, read, written, dirs*mbBytes, mbBytes)
		}
	}
}

func TestDecodeMatchesEncoderReconstruction(t *testing.T) {
	// The decoder must agree with the encoder's local reconstruction:
	// decode twice and compare bit-exactness across runs (determinism),
	// and P-picture drift must be bounded by quantization error only —
	// tested indirectly via PSNR stability across a long GOP.
	cfg := encoder.Config{Width: 96, Height: 64, Pictures: 31, GOPSize: 31, QScaleI: 6, QScaleP: 8, QScaleB: 10}
	res := testStream(t, cfg)
	d1, _ := New(res.Data)
	f1, err := d1.All()
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := New(res.Data)
	f2, err := d2.All()
	if err != nil {
		t.Fatal(err)
	}
	src := frame.NewSynth(96, 64)
	var first, last float64
	for i := range f1 {
		if !f1[i].Equal(f2[i]) {
			t.Fatalf("decode not deterministic at frame %d", i)
		}
		p := frame.PSNR(src.Frame(i), f1[i])
		if i == 0 {
			first = p
		}
		last = p
	}
	// No unbounded drift across the GOP: the final P-chain picture is
	// within a few dB of the first.
	if last < first-9 {
		t.Fatalf("drift: first %.1f dB, last %.1f dB", first, last)
	}
}
