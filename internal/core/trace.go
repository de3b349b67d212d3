package core

import (
	"fmt"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/memtrace"
	"mpeg2par/internal/mpeg2"
)

// TraceDecode decodes the stream once, sequentially and deterministically,
// emitting the reconstruction memory-reference trace as if `procs`
// processors had executed it: tasks (slices or GOPs, per mode) are
// assigned to processors round-robin, the same no-locality dynamic
// assignment the paper's decoders use. Frames are freshly allocated, so
// picture buffers occupy new addresses like the paper's dynamically
// allocated buffers.
//
// A deterministic label assignment (rather than the goroutine engine's
// worker ids) is essential on small hosts: with one CPU a single worker
// goroutine would otherwise execute — and label — every task.
func TraceDecode(data []byte, mode Mode, procs int, tr memtrace.Tracer) error {
	return TraceDecodeAssign(data, mode, procs, AffinityNone, tr)
}

// TraceDecodeAssign is TraceDecode with an explicit task→processor
// assignment discipline for the slice modes: AffinityNone labels tasks
// round-robin (the paper's dynamic assignment, and what TraceDecode
// emits), AffinityRow labels each slice with the band its row lies in,
// row·procs / MBHeight — the deterministic steady state of the
// band-affinity queue, where the work-conserving fallback never fires
// because the simulator has no timing skew. GOP mode ignores the discipline (each GOP is already one
// processor's task). The locality study A/Bs the two labelings under
// cachesim.
func TraceDecodeAssign(data []byte, mode Mode, procs int, aff Affinity, tr memtrace.Tracer) error {
	if procs < 1 {
		return fmt.Errorf("core: need at least one processor")
	}
	m, err := Scan(data)
	if err != nil {
		return err
	}
	if mode == ModeGOP {
		return traceGOPs(data, m, procs, tr)
	}
	return traceSlices(data, m, procs, aff, tr)
}

// traceInput emits the VLD's sequential read of a coded byte range — the
// read-once streaming component of the reference stream.
func traceInput(tr memtrace.Tracer, data []byte, proc, off, end int) {
	base := tr.Base(&data[0], len(data))
	const chunk = 256
	for a := off; a < end; a += chunk {
		n := end - a
		if n > chunk {
			n = chunk
		}
		tr.Access(proc, base+uint64(a), n, false)
	}
}

func traceGOPs(data []byte, m *StreamMap, procs int, tr memtrace.Tracer) error {
	for g := range m.GOPs {
		gop := &m.GOPs[g]
		proc := g % procs
		seq := m.Seq
		pd := decoder.PictureDecoder{Seq: &seq, Tracer: tr, Proc: proc}
		r := bits.NewReader(data[:gop.End])
		r.SeekBit(int64(gop.Offset) * 8)
		pi := 0
		for {
			code, err := r.NextStartCode()
			if err != nil {
				break
			}
			r.Skip(32)
			if code == mpeg2.PictureStartCode {
				if pi < len(gop.Pictures) {
					pr := &gop.Pictures[pi]
					traceInput(tr, data, proc, pr.Offset, pr.End)
				}
				pi++
				if _, err := pd.DecodePicture(r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func traceSlices(data []byte, m *StreamMap, procs int, aff Affinity, tr memtrace.Tracer) error {
	pics, err := buildPicStates(data, m, Options{Packing: PackFIFO})
	if err != nil {
		return err
	}
	opt := Options{Tracer: tr}
	task := 0
	var scr sliceScratch
	for _, p := range pics {
		p.frame = frame.New(m.Seq.Width, m.Seq.Height)
		for si := range p.rng.Slices {
			proc := task % procs
			if aff == AffinityRow {
				proc = bandOf(p.rng.Slices[si].Row, procs, p.params.MBHeight)
			}
			sr := p.rng.Slices[si]
			traceInput(tr, data, proc, sr.Offset, sr.End)
			if _, _, err := decodeOneSlice(m, p, si, proc, opt, &scr); err != nil {
				return err
			}
			task++
		}
	}
	return nil
}

// VisitMacroblocks walks every macroblock of the stream at the syntax
// level — no pixel reconstruction — calling fn for each decoded
// macroblock in decode order. Useful for stream inspection and tests.
func VisitMacroblocks(data []byte, m *StreamMap, fn func(mb *mpeg2.MB)) error {
	pics, err := buildPicStates(data, m, Options{Packing: PackFIFO})
	if err != nil {
		return err
	}
	for _, p := range pics {
		for _, sr := range p.rng.Slices {
			r := bits.NewReader(data[:sr.End])
			r.SeekBit(int64(sr.Offset) * 8)
			code, err := r.ReadStartCode()
			if err != nil {
				return err
			}
			ds, err := mpeg2.DecodeSlice(r, &p.params, int(code)-1)
			if err != nil {
				return err
			}
			for i := range ds.MBs {
				fn(&ds.MBs[i])
			}
		}
	}
	return nil
}
