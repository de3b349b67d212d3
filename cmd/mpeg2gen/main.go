// Command mpeg2gen generates MPEG-2 test streams of the paper's shape:
// a synthetic panning scene encoded at a chosen resolution, GOP size and
// bitrate, with closed GOPs and one slice per macroblock row.
//
// Usage:
//
//	mpeg2gen -size 352x240 -pictures 120 -gop 13 -rate 5000000 -o flow352.m2v
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"mpeg2par"
)

func main() {
	size := flag.String("size", "352x240", "picture size WxH")
	pictures := flag.Int("pictures", 120, "number of pictures")
	gop := flag.Int("gop", 13, "pictures per GOP")
	rate := flag.Int("rate", 5_000_000, "target bitrate (bits/s), 0 = constant quality")
	fps := flag.Float64("fps", 30, "frame rate")
	out := flag.String("o", "out.m2v", "output file")
	quiet := flag.Bool("q", false, "suppress the summary")
	interlaced := flag.Bool("interlaced", false, "interlaced source and coding tools (field prediction/DCT)")
	nogop := flag.Bool("nogop", false, "omit GOP headers (sequence-layer grouping, MPEG-2 option)")
	rows := flag.Int("rows", 0, "macroblock rows per slice (0 = one row per slice; large values make few, tall slices)")
	idxOut := flag.String("index", "", "also build a split index of the generated stream and write it here (feeds WithIndex)")
	flag.Parse()

	var w, h int
	if _, err := fmt.Sscanf(strings.ToLower(*size), "%dx%d", &w, &h); err != nil {
		fatal("bad -size %q: %v", *size, err)
	}
	cfg := mpeg2par.StreamConfig{
		Width:                w,
		Height:               h,
		Pictures:             *pictures,
		GOPSize:              *gop,
		BitRate:              *rate,
		FrameRate:            *fps,
		RepeatSequenceHeader: true,
		Interlaced:           *interlaced,
		OmitGOPHeaders:       *nogop,
		RowsPerSlice:         *rows,
	}
	var stream *mpeg2par.Stream
	var err error
	if *interlaced {
		src := mpeg2par.NewInterlacedSynth(w, h)
		stream, err = mpeg2par.EncodeFrames(cfg, func(n int) *mpeg2par.Frame { return src.Frame(n) })
	} else {
		stream, err = mpeg2par.GenerateStream(cfg)
	}
	if err != nil {
		fatal("encode: %v", err)
	}
	if err := os.WriteFile(*out, stream.Data, 0o644); err != nil {
		fatal("write: %v", err)
	}
	if *idxOut != "" {
		idx, err := mpeg2par.BuildIndex(context.Background(), mpeg2par.FromBytes(stream.Data))
		if err != nil {
			fatal("index: %v", err)
		}
		raw, err := idx.MarshalBinary()
		if err != nil {
			fatal("index: %v", err)
		}
		if err := os.WriteFile(*idxOut, raw, 0o644); err != nil {
			fatal("write index: %v", err)
		}
		if !*quiet {
			fmt.Printf("%s: split index, %d slices, %d points, %d bytes\n",
				*idxOut, idx.Slices(), idx.Points(), len(raw))
		}
	}
	if !*quiet {
		var iBits, pBits, bBits, nI, nP, nB int
		for _, p := range stream.Pictures {
			switch p.Type {
			case 'I':
				iBits, nI = iBits+p.Bits, nI+1
			case 'P':
				pBits, nP = pBits+p.Bits, nP+1
			case 'B':
				bBits, nB = bBits+p.Bits, nB+1
			}
		}
		fmt.Printf("%s: %d pictures (%dI %dP %dB), %d GOPs, %.2f MB, %.2f Mb/s\n",
			*out, len(stream.Pictures), nI, nP, nB, len(stream.GOPs),
			float64(len(stream.Data))/(1<<20), stream.BitsPerSecond(*fps)/1e6)
		if nI > 0 && nB > 0 {
			fmt.Printf("avg bits/picture: I %d, P %d, B %d\n", iBits/nI, pBits/max(nP, 1), bBits/nB)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpeg2gen: "+format+"\n", args...)
	os.Exit(1)
}
