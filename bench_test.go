// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (backed by internal/bench's experiment drivers), plus
// wall-clock benchmarks of the real decode engines. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks report the paper-shaped metric of their
// table/figure as a custom unit alongside the usual ns/op.
package mpeg2par_test

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"

	"mpeg2par"
	"mpeg2par/internal/bench"
)

var (
	runnerOnce  sync.Once
	benchRunner *bench.Runner
)

// runner returns the shared experiment runner (streams and profiles are
// generated once and cached across benchmarks).
func runner() *bench.Runner {
	runnerOnce.Do(func() {
		benchRunner = bench.NewRunner(bench.SmallConfig())
	})
	return benchRunner
}

func BenchmarkTable1TestStreams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runner().Table1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2ScanRate(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		rows, err := runner().Table2(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		rate = rows[len(rows)-1].ScanPicsPerS
	}
	b.ReportMetric(rate, "scan-pics/s")
}

func BenchmarkTable34Throughput(b *testing.B) {
	var gop float64
	for i := 0; i < b.N; i++ {
		rows, err := runner().Table34(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		gop = rows[len(rows)-1].GOP
	}
	b.ReportMetric(gop, "gop-pics/s")
}

func BenchmarkFig5GOPSpeedup(b *testing.B) {
	var s14 float64
	for i := 0; i < b.N; i++ {
		series, err := runner().Fig5(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		s14 = series[0].Speedup[len(series[0].Speedup)-1]
	}
	b.ReportMetric(s14, "speedup@14")
}

func BenchmarkFig6LoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runner().Fig6(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7MemoryStall(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := runner().Fig7(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[len(rows)-1].Ratio
	}
	b.ReportMetric(ratio, "actual/ideal")
}

func BenchmarkFig8GOPMemory(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		rows, err := runner().Fig8(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		peak = float64(rows[len(rows)-1].PeakFrames)
	}
	b.ReportMetric(peak, "peak-frames")
}

func BenchmarkFig9MemoryModel(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		cases, err := runner().Fig9(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		peak = float64(cases[len(cases)-1].Peak) / (1 << 20)
	}
	b.ReportMetric(peak, "peak-MB")
}

func BenchmarkFig11SliceSpeedups(b *testing.B) {
	var improved float64
	for i := 0; i < b.N; i++ {
		_, imp, err := runner().Fig11(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		improved = imp[len(imp)-1].Speedup[13]
	}
	b.ReportMetric(improved, "improved-speedup@14")
}

func BenchmarkFig12SyncRatio(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		series, err := runner().Fig12(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		ratio = series[len(series)-1].Ratio[13]
	}
	b.ReportMetric(ratio, "sync/exec@14")
}

func BenchmarkFig13LineSize(b *testing.B) {
	var mr float64
	for i := 0; i < b.N; i++ {
		rows, err := runner().Fig13(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		mr = rows[len(rows)-1].MissRate
	}
	b.ReportMetric(mr*100, "missrate-%@256B")
}

func BenchmarkFig14WorkingSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runner().Fig14(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15CapacityVsCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runner().Fig15(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDashDSM(b *testing.B) {
	var s32 float64
	for i := 0; i < b.N; i++ {
		rows, err := runner().Dash(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		s32 = rows[len(rows)-1].SpeedupOver4
	}
	b.ReportMetric(s32, "speedup32/4")
}

// --- wall-clock engine benchmarks -------------------------------------------

func BenchmarkEncode352(b *testing.B) {
	cfg := mpeg2par.StreamConfig{Width: 352, Height: 240, Pictures: 13, GOPSize: 13, BitRate: 5_000_000}
	for i := 0; i < b.N; i++ {
		if _, err := mpeg2par.GenerateStream(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(13*b.N)/b.Elapsed().Seconds(), "pics/s")
}

func BenchmarkSequentialDecode352(b *testing.B) {
	s := testStream352(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(s.Data),
			mpeg2par.WithMode(mpeg2par.ModeSequential)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(s.Pictures)*b.N)/b.Elapsed().Seconds(), "pics/s")
}

func BenchmarkParallelDecode(b *testing.B) {
	s := testStream352(b)
	for _, mode := range []mpeg2par.Mode{mpeg2par.ModeGOP, mpeg2par.ModeSliceSimple, mpeg2par.ModeSliceImproved} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(s.Data),
					mpeg2par.WithMode(mode), mpeg2par.WithWorkers(4)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(s.Pictures)*b.N)/b.Elapsed().Seconds(), "pics/s")
		})
	}
}

func BenchmarkScan(b *testing.B) {
	s := testStream352(b)
	b.SetBytes(int64(len(s.Data)))
	for i := 0; i < b.N; i++ {
		if _, err := mpeg2par.ScanReader(bytes.NewReader(s.Data), 0); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	s352Once sync.Once
	s352     *mpeg2par.Stream
	s352Err  error
)

func testStream352(b *testing.B) *mpeg2par.Stream {
	b.Helper()
	s352Once.Do(func() {
		s352, s352Err = mpeg2par.GenerateStream(mpeg2par.StreamConfig{
			Width: 352, Height: 240, Pictures: 26, GOPSize: 13, BitRate: 5_000_000,
		})
	})
	if s352Err != nil {
		b.Fatal(s352Err)
	}
	return s352
}
