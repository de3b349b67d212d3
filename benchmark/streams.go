package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"mpeg2par"
	"mpeg2par/internal/core"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
)

// streamSet is a workload's input and the oracle its output is checked
// against.
type streamSet struct {
	data         []byte
	oracle       []uint64 // FNV-64a of every frame, display order
	index        *mpeg2par.Index
	sha256       string
	sceneOffset  int
	encodeS      float64 // time inside the encoder, for encoder.setup_pics_per_s
	slicesPerPic float64
}

var sequenceEnd = []byte{0, 0, 1, 0xB7}

// buildStream is the whole of set-up for one workload: encode the scene
// the seed selects, tile it, hash the sequential decoder's frames as the
// oracle, and build the split index where the workload uses one.
func buildStream(w *workload, seed int64) (*streamSet, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &streamSet{sceneOffset: rng.Intn(4096)}

	synth := frame.NewSynth(w.enc.Width, w.enc.Height)
	t0 := time.Now()
	enc, err := mpeg2par.EncodeFrames(w.enc, func(n int) *mpeg2par.Frame {
		return synth.Frame(s.sceneOffset + n)
	})
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", w.name, err)
	}
	s.encodeS = time.Since(t0).Seconds()

	s.data, err = tileStream(enc.Data, w.tile)
	if err != nil {
		return nil, fmt.Errorf("tile %s: %w", w.name, err)
	}
	sum := sha256.Sum256(s.data)
	s.sha256 = hex.EncodeToString(sum[:])

	if s.oracle, err = oracleHashes(s.data); err != nil {
		return nil, fmt.Errorf("oracle %s: %w", w.name, err)
	}
	if len(s.oracle) != w.pictures() {
		return nil, fmt.Errorf("oracle %s: %d frames, want %d", w.name, len(s.oracle), w.pictures())
	}
	m, err := core.Scan(s.data)
	if err != nil {
		return nil, fmt.Errorf("scan %s: %w", w.name, err)
	}
	slices := 0
	for _, g := range m.GOPs {
		for _, p := range g.Pictures {
			slices += len(p.Slices)
		}
	}
	s.slicesPerPic = float64(slices) / float64(m.TotalPictures)
	if w.indexed {
		s.index, err = mpeg2par.BuildIndex(context.Background(), mpeg2par.FromBytes(s.data))
		if err != nil {
			return nil, fmt.Errorf("index %s: %w", w.name, err)
		}
	}
	return s, nil
}

// tileStream repeats a stream of closed GOPs n times: the trailing
// sequence_end_code is stripped from every copy and appended once.
func tileStream(data []byte, n int) ([]byte, error) {
	if !bytes.HasSuffix(data, sequenceEnd) {
		return nil, errors.New("stream does not end with sequence_end_code")
	}
	body := data[:len(data)-len(sequenceEnd)]
	out := make([]byte, 0, len(body)*n+len(sequenceEnd))
	for i := 0; i < n; i++ {
		out = append(out, body...)
	}
	return append(out, sequenceEnd...), nil
}

// oracleHashes decodes data with the sequential decoder, one frame at a
// time so the frames need not all be held, and hashes each.
func oracleHashes(data []byte) ([]uint64, error) {
	d, err := decoder.New(data)
	if err != nil {
		return nil, err
	}
	var hs []uint64
	for {
		f, err := d.Next()
		if errors.Is(err, io.EOF) {
			return hs, nil
		}
		if err != nil {
			return nil, err
		}
		hs = append(hs, frameHash(f))
	}
}

// frameHash is FNV-64a over the visible rows of the three planes; row
// padding and the coded margin are left out.
func frameHash(f *frame.Frame) uint64 {
	h := uint64(14695981039346656037)
	plane := func(p []uint8, stride, w, rows int) {
		for y := 0; y < rows; y++ {
			for _, b := range p[y*stride : y*stride+w] {
				h ^= uint64(b)
				h *= 1099511628211
			}
		}
	}
	plane(f.Y, f.YStride, f.Width, f.Height)
	cw, ch := (f.Width+1)/2, (f.Height+1)/2
	plane(f.Cb, f.CStride, cw, ch)
	plane(f.Cr, f.CStride, cw, ch)
	return h
}
