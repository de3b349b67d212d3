// Command mpeg2dec decodes an MPEG-2 video elementary stream with the
// sequential decoder or one of the paper's parallel decoders, reporting
// throughput, per-worker time breakdowns and memory usage. Output can be
// written as raw planar YUV 4:2:0 for inspection.
//
// Decoding streams through the context-first pipeline: the input —
// a file, or stdin when the argument is "-" — is read incrementally,
// groups of pictures are decoded as the scan discovers them, and peak
// buffered-stream memory stays bounded by the scan-ahead window
// (-inflight). -timeout aborts a stuck or oversized decode cleanly.
//
// A resilience policy turns damaged streams from hard errors into
// recovered decodes (identical in every mode), and -fault/-seed inject
// deterministic corruption for testing the policies end to end
// (fault injection materializes the stream in memory first).
//
// Usage:
//
//	mpeg2dec -mode slice-improved -workers 4 -yuv out.yuv stream.m2v
//	cat stream.m2v | mpeg2dec -mode gop -workers 4 -timeout 30s -
//	mpeg2dec -resilience conceal-slice -fault gilbert:loss=0.01,pkt=188 stream.m2v
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mpeg2par"
)

func main() {
	mode := flag.String("mode", "seq", "decoder: seq, gop, slice, slice-improved, auto")
	workers := flag.Int("workers", 1, "worker processes for parallel modes")
	yuv := flag.String("yuv", "", "write decoded frames as planar YUV 4:2:0")
	resilience := flag.String("resilience", "failfast",
		"damage policy: failfast, conceal-slice, conceal-picture, drop-gop")
	fault := flag.String("fault", "", "inject a fault before decoding, e.g. bitflip:8 or gilbert:loss=0.02,pkt=188")
	seed := flag.Int64("seed", 1, "fault-injection seed (with -fault)")
	timeout := flag.Duration("timeout", 0, "abort the decode after this long (0 = no limit)")
	inflight := flag.Int("inflight", 0, "scan-ahead window in GOPs (0 = 2*workers+2)")
	trace := flag.String("trace", "", "record the worker timeline and write Chrome trace JSON (open in Perfetto)")
	flag.Parse()
	if flag.NArg() != 1 {
		fatal("usage: mpeg2dec [flags] stream.m2v|-")
	}

	policy, err := mpeg2par.ParseResilience(*resilience)
	if err != nil {
		fatal("%v", err)
	}

	// The source: a reader streamed incrementally, unless fault
	// injection needs the whole stream in memory first.
	var src mpeg2par.Source
	var in io.ReadCloser
	if *fault != "" {
		data, err := readAll(flag.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		sp, err := mpeg2par.ParseFaultSpec(*fault)
		if err != nil {
			fatal("%v", err)
		}
		var rep mpeg2par.FaultReport
		data, rep = sp.Apply(data, *seed)
		fmt.Printf("injected %s seed %d: %d events, %d bits flipped, %d bytes corrupted, %d bytes dropped (%d -> %d bytes)\n",
			rep.Spec, rep.Seed, rep.Events, rep.BitsFlipped, rep.BytesCorrupted, rep.BytesDropped, rep.InLen, rep.OutLen)
		src = mpeg2par.FromBytes(data)
	} else if flag.Arg(0) == "-" {
		src = mpeg2par.FromReader(os.Stdin)
	} else {
		in, err = os.Open(flag.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		defer in.Close()
		src = mpeg2par.FromReader(in)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var sinkFile *os.File
	if *yuv != "" {
		sinkFile, err = os.Create(*yuv)
		if err != nil {
			fatal("%v", err)
		}
		defer sinkFile.Close()
	}
	writeFrame := func(f *mpeg2par.Frame) {
		if sinkFile == nil {
			return
		}
		// Display-size planes, row by row.
		for y := 0; y < f.Height; y++ {
			sinkFile.Write(f.Y[y*f.YStride : y*f.YStride+f.Width])
		}
		for _, plane := range [][]uint8{f.Cb, f.Cr} {
			for y := 0; y < f.Height/2; y++ {
				sinkFile.Write(plane[y*f.CStride : y*f.CStride+f.Width/2])
			}
		}
	}

	var m mpeg2par.Mode
	switch *mode {
	case "seq":
		m = mpeg2par.ModeSequential
	case "gop":
		m = mpeg2par.ModeGOP
	case "slice":
		m = mpeg2par.ModeSliceSimple
	case "slice-improved":
		m = mpeg2par.ModeSliceImproved
	case "auto":
		m = mpeg2par.ModeAuto
	default:
		fatal("unknown mode %q", *mode)
	}

	opts := []mpeg2par.Option{
		mpeg2par.WithMode(m),
		mpeg2par.WithWorkers(*workers),
		mpeg2par.WithResilience(policy),
		mpeg2par.WithFrameSink(writeFrame),
		mpeg2par.WithMaxInFlight(*inflight),
	}
	var rec *mpeg2par.TraceRecorder
	if *trace != "" {
		rec = mpeg2par.NewTraceRecorder(0)
		opts = append(opts, mpeg2par.WithTrace(rec))
	}

	stats, err := mpeg2par.Decode(ctx, src, opts...)
	if err != nil {
		if ctx.Err() != nil {
			fatal("decode aborted after %v: %v (displayed %d of %d pictures)",
				*timeout, err, stats.Displayed, stats.Pictures)
		}
		fatal("decode: %v", err)
	}
	if a := stats.Auto; a != nil {
		fmt.Printf("auto-tune: %s\n", a.Reason)
	}
	fmt.Printf("%s x%d (%s): %d pictures in %v (%.1f pics/s), scan %.0f pics/s, kernels %s\n",
		stats.Mode, stats.Workers, policy, stats.Pictures, stats.Wall.Round(time.Millisecond),
		stats.PicturesPerSecond(), stats.ScanRate, stats.Kernels)
	fmt.Printf("peak frame memory: %.2f MB\n", float64(stats.PeakFrameBytes)/(1<<20))
	fmt.Printf("peak in-flight stream bytes: %.1f KB (scan lead %d pictures)\n",
		float64(stats.PeakInFlightBytes)/(1<<10), stats.ScanLeadPeak)
	if stats.Errors.Any() {
		fmt.Printf("recovered damage: %s\n", stats.Errors)
	}
	if n := stats.Errors.ConcealedMBs; n > 0 {
		fmt.Printf("concealed %d macroblocks\n", n)
	}
	for i, ws := range stats.WorkerStats {
		fmt.Printf("  worker %2d: busy %-12v wait %-12v tasks %-6d parks %d\n",
			i, ws.Busy.Round(time.Microsecond), ws.Wait.Round(time.Microsecond), ws.Tasks, ws.Parks)
	}

	if rec != nil {
		tl := rec.Snapshot()
		out, err := os.Create(*trace)
		if err != nil {
			fatal("%v", err)
		}
		if err := tl.WriteChromeTrace(out); err != nil {
			out.Close()
			fatal("write trace: %v", err)
		}
		if err := out.Close(); err != nil {
			fatal("write trace: %v", err)
		}
		fmt.Printf("wrote %d timeline events to %s (open in Perfetto or chrome://tracing)\n",
			len(tl.Events), *trace)
		tl.Summary().WriteText(os.Stdout)
	}
}

func readAll(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpeg2dec: "+format+"\n", args...)
	os.Exit(1)
}
