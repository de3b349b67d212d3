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
// ModeSequential traces on one processor whatever procs says; ModeAuto
// fails, since its assignment is decided at run time.
func TraceDecode(data []byte, mode Mode, procs int, tr memtrace.Tracer) error {
	return TraceDecodeAssign(data, mode, procs, false, tr)
}

// TraceDecodeAssign is TraceDecode with an explicit task→processor
// assignment for the slice modes: without bands it labels tasks
// round-robin (the paper's dynamic assignment, and what TraceDecode
// emits); with bands it labels each slice with the band its row lies in,
// row·procs / MBHeight — the deterministic steady state of the slice
// queue's band steering, where the work-conserving fallback never fires
// because the simulator has no timing skew. GOP mode ignores bands (each
// GOP is already one processor's task). The locality study A/Bs the two
// labelings under cachesim.
func TraceDecodeAssign(data []byte, mode Mode, procs int, bands bool, tr memtrace.Tracer) error {
	switch {
	case mode == ModeAuto:
		return badOption("a trace needs a fixed mode, not %v", mode)
	case procs < 1:
		return fmt.Errorf("core: need at least one processor")
	case mode == ModeSequential:
		procs = 1
	}
	m, err := Scan(data)
	if err != nil {
		return err
	}
	// The pictures the decoders run, walked in decode order on this
	// goroutine slice by slice. Reconstruction carries no tracing hook:
	// each slice's references are replayed once it is reconstructed. A
	// picture its slices do not cover fails the trace, whatever the mode.
	pl, err := buildPlan(data, m, Options{Workers: 1})
	if err != nil {
		return err
	}
	var scr sliceScratch
	var cov coverage
	var es ErrorStats
	task := 0
	for _, p := range pl.pics {
		p.frame = frame.New(m.Seq.Width, m.Seq.Height)
		if p.fate == fateSubstitute {
			substitute(p)
			continue
		}
		// A GOP-mode picture is one task, on its group's processor.
		proc := p.gop % procs
		if mode == ModeGOP {
			traceInput(tr, data, proc, p.rng.Offset, p.rng.End)
		}
		refs := picRefs(p)
		scr.taskSpans = scr.taskSpans[:0]
		for si, sr := range p.rng.Slices {
			if mode != ModeGOP {
				proc = task % procs
				if bands {
					proc = bandOf(sr.Row, procs, p.params.MBHeight)
				}
				task++
				traceInput(tr, data, proc, sr.Offset, sr.End)
			}
			if _, err := decodeSliceRange(data, &m.Seq, &p.hdr, &p.params, sr, p.sliceBound(si), refs, p.frame, &scr); err != nil {
				return err
			}
			decoder.TraceSlice(&m.Seq, &p.hdr, refs, p.frame, &mpeg2.DecodedSlice{MBs: scr.mbs}, proc, tr)
		}
		cov.reset(p.params.MBWidth * p.params.MBHeight)
		for _, s := range scr.taskSpans {
			cov.addRange(s.first, s.last)
		}
		if err := concealUncovered(p, &cov, Options{}, &es); err != nil {
			return err
		}
	}
	return nil
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

// VisitMacroblocks walks every macroblock of the stream at the syntax
// level — no pixel reconstruction — calling fn for each decoded
// macroblock in decode order. Useful for stream inspection and tests.
func VisitMacroblocks(data []byte, m *StreamMap, fn func(mb *mpeg2.MB)) error {
	pl, err := buildPlan(data, m, Options{Workers: 1})
	if err != nil {
		return err
	}
	for _, p := range pl.pics {
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
