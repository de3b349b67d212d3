//go:build ignore

// vldshare replays the seq-ipb-sd scene (704x480 IBBP at 4 Mb/s, 26
// pictures) slice by slice for a fixed time, timing the variable-length
// decode (mpeg2.DecodeSliceInto) and the reconstruction (decoder.ReconSlice)
// of every slice apart, as the benchmark's traced pass does, and prints
// both per picture and the VLD share of the two. It calls only entry
// points the parent commit has too, so the same file builds in its tree:
//
//	go build -o vldshare experiments/pr35-one-call-mc/vldshare.go
//	./vldshare [-seconds 5] [-cpuprofile f]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"mpeg2par"
	"mpeg2par/internal/bits"
	"mpeg2par/internal/core"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/vlc"
)

func main() {
	seconds := flag.Float64("seconds", 5, "how long to run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here")
	flag.Parse()
	s, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{Width: 704, Height: 480, Pictures: 26, GOPSize: 13,
		IPDistance: 3, BitRate: 4_000_000, RepeatSequenceHeader: true})
	check(err)
	m, err := core.Scan(s.Data)
	check(err)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	pool := frame.NewPool(m.Seq.Width, m.Seq.Height)
	var rd bits.Reader
	var mbs []mpeg2.MB
	var vld, recon time.Duration
	pics := 0
	start := time.Now()
	for time.Since(start).Seconds() < *seconds {
		var refOld, refNew *frame.Frame
		for g := range m.GOPs {
			for pi := range m.GOPs[g].Pictures {
				pr := &m.GOPs[g].Pictures[pi]
				rd.Reset(s.Data[:pr.End])
				rd.SeekBit(int64(pr.Offset+4) * 8)
				hdr, err := mpeg2.ParsePictureHeader(&rd)
				check(err)
				params := decoder.PictureParams(&m.Seq, &hdr)
				refs := decoder.Refs{}
				switch hdr.Type {
				case vlc.CodingP:
					refs.Fwd = refNew
				case vlc.CodingB:
					refs.Fwd, refs.Bwd = refOld, refNew
				}
				dst := pool.Get()
				for si := range pr.Slices {
					sl := &pr.Slices[si]
					rd.Reset(s.Data[:sl.End])
					rd.SeekBit(int64(sl.Offset) * 8)
					code, err := rd.ReadStartCode()
					check(err)
					t0 := time.Now()
					ds, err := mpeg2.DecodeSliceInto(&rd, &params, int(code)-1, mbs)
					t1 := time.Now()
					check(err)
					mbs = ds.MBs
					_, err = decoder.ReconSlice(&m.Seq, &hdr, refs, dst, &ds, 0, nil)
					t2 := time.Now()
					check(err)
					vld += t1.Sub(t0)
					recon += t2.Sub(t1)
				}
				pics++
				if hdr.Type == vlc.CodingB {
					pool.Put(dst)
					continue
				}
				if refOld != nil {
					pool.Put(refOld)
				}
				refOld, refNew = refNew, dst
			}
		}
		pool.Put(refOld)
		pool.Put(refNew)
	}
	us := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(pics) }
	fmt.Printf("vld %.1f us/pic  recon %.1f us/pic  vld share %.3f\n", us(vld), us(recon), float64(vld)/float64(vld+recon))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
