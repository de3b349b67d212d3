// Package stream decodes an MPEG-2 elementary stream incrementally from
// an io.Reader: the scan process discovers structure chunk by chunk and
// feeds groups of pictures to the worker pool as soon as they close,
// instead of after a full-stream scan. Output is bit-identical to the batch
// decoder for every mode and resilience policy — both sides drive the same
// incremental scan state machine and plan builder.
//
// What a decode holds is bounded by windows, never by stream length: the
// scan window (the open group and the unscanned tail, one chunk unless a
// group outgrows it), at most MaxInFlight units — a closed group's bytes
// and scanned ranges, handed over by the scan and forgotten there — with
// their planned pictures, the slice queue's depth window and the reorder
// buffer. A group's pictures leave the plan when every one of them has
// been decoded and handed to the display process (its unit retires);
// nothing later can name them, since references never leave a group.
// Stats.PeakInFlightBytes gauges window + units; DESIGN.md, "Streaming
// pipeline", has the table.
package stream

import (
	"context"
	"fmt"
	"io"
	"time"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/core"
	"mpeg2par/internal/obs"
)

// DefaultChunkSize is the read granularity when Options.ChunkSize is
// zero.
const DefaultChunkSize = 64 << 10

// Options configures a streaming decode. The embedded core options
// select mode, workers, resilience, sink, and the scan-ahead window
// (MaxInFlight).
type Options struct {
	core.Options

	// ChunkSize is the read granularity over the source reader; zero
	// selects DefaultChunkSize. Small chunks exercise more startcode
	// boundary splits, large chunks amortize read overhead.
	ChunkSize int
}

// windowScanner slides a bounded byte window over a reader and drives
// the incremental scan state machine across it. The window keeps, at
// most, the open group of pictures plus the unscanned tail — the floor
// ScanState.KeepFrom reports.
type windowScanner struct {
	r     io.Reader
	chunk int
	ss    *core.ScanState
	buf   []byte
	base  int         // absolute stream offset of buf[0]
	gauge func(int64) // in-flight byte accounting hook, may be nil
}

// bytes returns the window's view of absolute range [from, to).
func (w *windowScanner) bytes(from, to int) []byte {
	return w.buf[from-w.base : to-w.base]
}

// run reads the stream to EOF, stepping the scan state machine over
// every startcode. A startcode is processed only once ScanAheadBytes of
// lookahead are buffered (or the stream ended), which makes every
// header parse see the same bytes the batch scan would — the
// equivalence the chunk-boundary tests pin down. Returns the total
// stream length.
func (w *windowScanner) run(ctx context.Context, note func(int)) (int, error) {
	searchFrom := 0 // absolute offset scanning resumes from
	for {
		if err := ctx.Err(); err != nil {
			return w.base + len(w.buf), err
		}
		// Slide the window: bytes below the scan state's floor (open
		// group, pending sequence header, scan position) are done.
		if keep := w.ss.KeepFrom(searchFrom); keep > w.base {
			n := copy(w.buf, w.buf[keep-w.base:])
			w.buf = w.buf[:n]
			if w.gauge != nil {
				w.gauge(int64(-(keep - w.base)))
			}
			w.base = keep
		}
		// Read into the capacity that is left, a chunk at most; the window
		// grows only when the open group has filled it.
		if len(w.buf) == cap(w.buf) {
			nb := make([]byte, len(w.buf), 2*len(w.buf)+w.chunk)
			copy(nb, w.buf)
			w.buf = nb
		}
		n, rerr := w.r.Read(w.buf[len(w.buf):min(cap(w.buf), len(w.buf)+w.chunk)])
		w.buf = w.buf[:len(w.buf)+n]
		if n > 0 && w.gauge != nil {
			w.gauge(int64(n))
		}
		eof := rerr == io.EOF
		if rerr != nil && !eof {
			return w.base + len(w.buf), fmt.Errorf("stream: read at %d: %w", w.base+len(w.buf), rerr)
		}
		end := w.base + len(w.buf)
		for {
			i := bits.FindStartCode(w.buf, searchFrom-w.base)
			if i < 0 {
				// No full startcode in the window; a prefix may still
				// straddle the boundary, so resume over the last 3 bytes.
				if f := end - 3; f > searchFrom {
					searchFrom = f
				}
				break
			}
			abs := w.base + i
			if !eof && end-abs < core.ScanAheadBytes {
				searchFrom = abs // revisit once the lookahead is buffered
				break
			}
			if err := w.ss.Step(w.buf, w.base, abs); err != nil {
				return end, err
			}
			if note != nil {
				note(w.ss.Pictures())
			}
			searchFrom = abs + 4
		}
		if eof {
			return end, nil
		}
	}
}

// rebaseGOP moves every offset of a group range down by delta, in place, so
// that they index the unit buffer whose first byte was stream offset delta.
func rebaseGOP(gr *core.GOPRange, delta int) {
	gr.Offset -= delta
	gr.End -= delta
	for i := range gr.Pictures {
		p := &gr.Pictures[i]
		p.Offset -= delta
		p.End -= delta
		for j := range p.Slices {
			p.Slices[j].Offset -= delta
			p.Slices[j].End -= delta
		}
	}
}

// ScanUnits drives the incremental scan over r in chunkSize-byte reads,
// invoking feed with each closed group of pictures as a self-contained
// core.Unit: an owned copy of the group's bytes with the scanned range
// rebased to it, exactly the units stream.Decode feeds its executor. A
// feed error aborts the scan and is returned. gauge (may be nil)
// receives in-flight window byte deltas; note (may be nil) is called
// with the running picture count after every scan step. Returns the
// pictures scanned and the scan-side wall time.
//
// This is the scan front half of the streaming pipeline with the decode
// back half factored out — the multi-stream service uses it to feed
// per-stream sessions whose tasks a shared pool executes.
func ScanUnits(ctx context.Context, r io.Reader, chunkSize int, lenient bool, gauge func(int64), note func(int), feed func(core.Unit) error) (int, time.Duration, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	ss := core.NewScanState(lenient)
	w := &windowScanner{r: r, chunk: chunkSize, ss: ss, gauge: gauge}
	ss.OnGOP = func(g int, gr *core.GOPRange) error {
		// Copy the group out of the window so the window can slide on; the
		// unit owns its bytes, and the range the scan has just let go of,
		// until its last picture completes.
		u := core.Unit{G: g, Base: gr.Offset, Seq: *ss.Seq(),
			Data: append([]byte(nil), w.bytes(gr.Offset, gr.End)...)}
		rebaseGOP(gr, u.Base)
		u.Range = *gr
		return feed(u)
	}
	scanStart := time.Now()
	total, err := w.run(ctx, note)
	if err == nil {
		_, err = ss.Finish(total)
	}
	return ss.Pictures(), time.Since(scanStart), err
}

// Decode runs the full streaming pipeline over r: incremental scan,
// parallel decode in the configured mode, in-order display through the
// sink. It blocks until the stream is exhausted and every picture
// displayed, or until ctx is cancelled — cancellation tears down scan,
// workers, and display without leaking goroutines or frame memory.
//
// Unlike the batch API, the returned Stats are non-nil even alongside
// an error, carrying the teardown gauges (notably LeakedFrameBytes).
func Decode(ctx context.Context, r io.Reader, opt Options) (*core.Stats, error) {
	exec, err := core.NewStreamExecutor(ctx, opt.Options)
	if err != nil {
		return &core.Stats{Mode: opt.Mode, Workers: opt.EffectiveWorkers()}, err
	}
	lastScan := time.Now()
	pics, scanDur, scanErr := ScanUnits(ctx, r, opt.ChunkSize, opt.Resilience != core.FailFast,
		exec.AdjustBuffered, exec.NoteScanned,
		func(u core.Unit) error {
			// The scan lane's span for this group covers reading + scanning
			// since the previous group closed; Feed's backpressure block is
			// recorded separately (KindFeed) so the two never double-count.
			opt.Obs.Record(obs.KindScan, obs.LaneScan, lastScan, time.Since(lastScan), u.G, -1, -1)
			err := exec.Feed(u)
			lastScan = time.Now()
			return err
		})

	st, err := exec.Finish(scanErr)
	st.ScanTime = scanDur
	if scanDur > 0 {
		st.ScanRate = float64(pics) / scanDur.Seconds()
	}
	return st, err
}

// ScanReader runs only the scan process over r in chunkSize-byte reads
// and returns the stream map. For any chunk size it is identical —
// field for field, offset for offset — to core.Scan (strict) or
// core.ScanLenient over the same bytes, except for ScanTime.
func ScanReader(r io.Reader, chunkSize int, lenient bool) (*core.StreamMap, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	start := time.Now()
	ss := core.NewScanState(lenient)
	w := &windowScanner{r: r, chunk: chunkSize, ss: ss}
	total, err := w.run(context.Background(), nil)
	if err != nil {
		return nil, err
	}
	m, err := ss.Finish(total)
	if err != nil {
		return nil, err
	}
	m.ScanTime = time.Since(start)
	return m, nil
}
