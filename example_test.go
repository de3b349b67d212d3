package mpeg2par_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"mpeg2par"
)

// ExampleGenerateStream encodes a short test stream and reports its
// structure.
func ExampleGenerateStream() {
	stream, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{
		Width: 96, Height: 64, Pictures: 4, GOPSize: 4,
	})
	if err != nil {
		panic(err)
	}
	types := ""
	for _, p := range stream.Pictures {
		types += string(p.Type)
	}
	fmt.Println("decode-order picture types:", types)
	fmt.Println("GOPs:", len(stream.GOPs))
	// Output:
	// decode-order picture types: IPBB
	// GOPs: 1
}

// ExampleDecode_bitExact decodes with the fine-grained parallel decoder
// and verifies it against the sequential decoder.
func ExampleDecode_bitExact() {
	stream, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{
		Width: 96, Height: 64, Pictures: 8, GOPSize: 4,
	})
	if err != nil {
		panic(err)
	}
	seq, err := mpeg2par.NewDecoder(stream.Data)
	if err != nil {
		panic(err)
	}
	want, err := seq.All()
	if err != nil {
		panic(err)
	}
	identical := true
	stats, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(stream.Data),
		mpeg2par.WithMode(mpeg2par.ModeSliceImproved),
		mpeg2par.WithWorkers(3),
		mpeg2par.WithFrameSink(func(f *mpeg2par.Frame) {
			if !f.Equal(want[f.DisplayIndex]) {
				identical = false
			}
		}),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println("pictures:", stats.Pictures)
	fmt.Println("bit-exact with sequential decode:", identical)
	// Output:
	// pictures: 8
	// bit-exact with sequential decode: true
}

// ExampleDecode is the streaming quick start: decode from any
// io.Reader under a context, receiving frames in display order while
// the stream is still being read.
func ExampleDecode() {
	stream, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{
		Width: 96, Height: 64, Pictures: 8, GOPSize: 4,
	})
	if err != nil {
		panic(err)
	}
	// Any io.Reader works as a source; a file or socket would stream in
	// bounded memory just the same.
	src := mpeg2par.FromReader(bytes.NewReader(stream.Data))

	inOrder := true
	next := 0
	stats, err := mpeg2par.Decode(context.Background(), src,
		mpeg2par.WithMode(mpeg2par.ModeSliceImproved),
		mpeg2par.WithWorkers(3),
		mpeg2par.WithFrameSink(func(f *mpeg2par.Frame) {
			if f.DisplayIndex != next {
				inOrder = false
			}
			next++
		}),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println("frames displayed:", stats.Displayed)
	fmt.Println("in display order:", inOrder)
	// Output:
	// frames displayed: 8
	// in display order: true
}

// ExampleScanReader shows the structural index the scan process builds —
// the foundation of task-parallel decoding.
func ExampleScanReader() {
	stream, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{
		Width: 96, Height: 64, Pictures: 8, GOPSize: 4,
	})
	if err != nil {
		panic(err)
	}
	m, err := mpeg2par.ScanReader(bytes.NewReader(stream.Data), 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("GOPs:", len(m.GOPs))
	fmt.Println("pictures:", m.TotalPictures)
	fmt.Println("slices per picture:", len(m.GOPs[0].Pictures[0].Slices))
	// Output:
	// GOPs: 2
	// pictures: 8
	// slices per picture: 4
}

// ExampleSimulateSlices replays measured slice costs under many simulated
// workers — how the paper's 16-processor results are reproduced on small
// hosts.
func ExampleSimulateSlices() {
	stream, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{
		Width: 96, Height: 64, Pictures: 13, GOPSize: 13,
	})
	if err != nil {
		panic(err)
	}
	pics, err := mpeg2par.ProfileSlices(stream.Data)
	if err != nil {
		panic(err)
	}
	one := mpeg2par.SimulateSlices(pics, 1, true)
	many := mpeg2par.SimulateSlices(pics, 4, true)
	fmt.Println("4 workers faster than 1:", many.Makespan < one.Makespan)
	// Output:
	// 4 workers faster than 1: true
}

// ExampleServer runs two prioritized streams through the multi-stream
// decode service sharing one worker pool.
func ExampleServer() {
	stream, err := mpeg2par.GenerateStream(mpeg2par.StreamConfig{
		Width: 96, Height: 64, Pictures: 8, GOPSize: 4,
	})
	if err != nil {
		panic(err)
	}
	srv := mpeg2par.NewServer(mpeg2par.ServerConfig{Workers: 2})
	defer srv.Close()

	var wg sync.WaitGroup
	delivered := make([]int, 2)
	for i := range delivered {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := srv.Decode(context.Background(), mpeg2par.FromBytes(stream.Data),
				mpeg2par.WithStreamPriority(i),
				mpeg2par.WithStreamSink(func(f *mpeg2par.Frame) { delivered[i]++ }),
			)
			if err != nil {
				panic(err)
			}
		}(i)
	}
	wg.Wait()
	fmt.Println("stream 0 frames:", delivered[0])
	fmt.Println("stream 1 frames:", delivered[1])
	// Output:
	// stream 0 frames: 8
	// stream 1 frames: 8
}
