package stream_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/faults"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/server"
	"mpeg2par/internal/stream"
)

var streamCache sync.Map

type streamKey struct{ w, h, pics, gop int }

func testStream(t testing.TB, w, h, pics, gop int) []byte {
	t.Helper()
	key := streamKey{w, h, pics, gop}
	if v, ok := streamCache.Load(key); ok {
		return v.([]byte)
	}
	res, err := encoder.EncodeSequence(encoder.Config{
		Width: w, Height: h, Pictures: pics, GOPSize: gop,
		RepeatSequenceHeader: true,
	}, frame.NewSynth(w, h))
	if err != nil {
		t.Fatal(err)
	}
	streamCache.Store(key, res.Data)
	return res.Data
}

// segReader yields the stream split at fixed offsets: each Read returns
// at most the remainder of the current segment, forcing the window
// scanner to see exactly the chosen boundaries.
type segReader struct {
	data []byte
	cuts []int // ascending split offsets
	pos  int
}

func (r *segReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	end := len(r.data)
	for _, c := range r.cuts {
		if c > r.pos && c < end {
			end = c
		}
	}
	n := copy(p, r.data[r.pos:end])
	r.pos += n
	return n, nil
}

func mustBatchScan(t *testing.T, data []byte, lenient bool) *core.StreamMap {
	t.Helper()
	scan := core.Scan
	if lenient {
		scan = core.ScanLenient
	}
	m, err := scan(data)
	if err != nil {
		t.Fatal(err)
	}
	m.ScanTime = 0
	return m
}

func TestScanReaderMatchesBatchAcrossChunkSizes(t *testing.T) {
	data := testStream(t, 80, 48, 12, 4)
	want := mustBatchScan(t, data, false)
	for _, chunk := range []int{1, 2, 3, 4, 5, 7, 13, 31, 64, 257, 4096, 1 << 20} {
		got, err := stream.ScanReader(bytes.NewReader(data), chunk, false)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		got.ScanTime = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: stream map differs from batch scan", chunk)
		}
	}
}

// TestScanWindowAllocatedOnce: a stream shorter than a chunk is read into
// the window it was first given. (End of stream arrives on the read after the
// last byte, and the window used to be regrown for that read.)
func TestScanWindowAllocatedOnce(t *testing.T) {
	data := testStream(t, 80, 48, 12, 4)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := stream.ScanReader(bytes.NewReader(data), stream.DefaultChunkSize, false); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > stream.DefaultChunkSize+4*uint64(len(data)) {
		t.Fatalf("scanning %d bytes allocated %d, want one %d-byte window and the map", len(data), got, stream.DefaultChunkSize)
	}
}

// TestScanBoundaryStraddle splits the stream at every single byte
// offset — covering every possible startcode straddle, including the
// 0x00|0x00 0x01, 0x00 0x00|0x01, and 0x00 0x00 0x01|code cuts — and
// demands the identical map each time.
func TestScanBoundaryStraddle(t *testing.T) {
	data := testStream(t, 48, 32, 4, 2)
	want := mustBatchScan(t, data, false)
	for k := 1; k < len(data); k++ {
		got, err := stream.ScanReader(&segReader{data: data, cuts: []int{k}}, len(data), false)
		if err != nil {
			t.Fatalf("split at %d: %v", k, err)
		}
		got.ScanTime = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("split at %d: stream map differs from batch scan", k)
		}
	}
}

func FuzzStreamScan(f *testing.F) {
	data := testStream(f, 48, 32, 4, 2)
	f.Add(data, 7)
	f.Add(data[:len(data)/2], 3)
	f.Add(data[5:], 64)
	mut := append([]byte(nil), data...)
	for i := 13; i < len(mut); i += 97 {
		mut[i] ^= 0x41
	}
	f.Add(mut, 11)
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		c := chunk % 977
		if c < 1 {
			c = 1 - c
		}
		want, wantErr := core.ScanLenient(data)
		got, gotErr := stream.ScanReader(bytes.NewReader(data), c, true)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("chunk %d: stream err=%v, batch err=%v", c, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		got.ScanTime, want.ScanTime = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: stream map differs from batch scan", c)
		}
	})
}

type collectSink struct {
	mu     sync.Mutex
	frames []*frame.Frame
}

func (c *collectSink) add(f *frame.Frame) {
	c.mu.Lock()
	c.frames = append(c.frames, f.Clone())
	c.mu.Unlock()
}

var allModes = []core.Mode{core.ModeSequential, core.ModeGOP, core.ModeSliceSimple, core.ModeSliceImproved}

var allPolicies = []core.Resilience{core.FailFast, core.ConcealSlice, core.ConcealPicture, core.DropGOP}

// oracleFrames decodes a clean stream with decoder.Decoder: the sequential
// decoder that shares the syntax and reconstruction layers with the engine
// and nothing above them — no scan map, plan, queue or frame pool.
func oracleFrames(t *testing.T, data []byte) []*frame.Frame {
	t.Helper()
	d, err := decoder.New(data)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := d.All()
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// oracleRef is oracleFrames in the shape sameDecode compares against: the
// frames, and the stats of a decode that displayed them all with no damage.
func oracleRef(t *testing.T, data []byte) (*collectSink, *core.Stats) {
	t.Helper()
	ref := &collectSink{frames: oracleFrames(t, data)}
	return ref, &core.Stats{Pictures: len(ref.frames), Displayed: len(ref.frames)}
}

// TestStreamingMatchesBatchGolden is the engine's bit-identity contract:
// every mode × policy, however the stream is fed — the scanned map's groups
// as units that borrow the caller's bytes, the incremental scan over them in
// place, or an io.Reader chunked at 1, 7,
// 4096 and the default size — must produce the same frames and accounting
// as the sequential mode, on clean and on damaged streams; and on the clean
// stream under FailFast, the frames of the independent oracle.
func TestStreamingMatchesBatchGolden(t *testing.T) {
	clean := testStream(t, 96, 64, 12, 4)
	oracle, oracleSt := oracleRef(t, clean)
	for _, mode := range allModes {
		for _, workers := range []int{1, 2, 3, 7} {
			var sink collectSink
			st, err := core.Decode(clean, core.Options{Mode: mode, Workers: workers, Sink: sink.add})
			sameDecode(t, fmt.Sprintf("%v/%d against decoder.Decoder", mode, workers), &sink, st, err, oracle, oracleSt, nil)
		}
	}
	inputs := [][]byte{clean}
	for _, spec := range []string{"burst:count=2,len=24", "droppic:1"} {
		sp, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		mut, _ := sp.Apply(clean, 2)
		inputs = append(inputs, mut)
	}
	for di, data := range inputs {
		for _, policy := range allPolicies {
			if policy == core.FailFast && di != 0 {
				continue // damaged streams are for the resilient policies
			}
			matchFeedings(t, fmt.Sprintf("input %d", di), data, policy, 1, 7, 4096, 0)
		}
	}
}

// wholeMap, as a chunk size, stands for core.Decode: the stream scanned to
// its end first, then every group fed as a unit that borrows the stream.
// inPlace stands for stream.Decode of an in-memory source: the incremental
// scan over the caller's bytes, its units borrowing them.
const (
	wholeMap = -1
	inPlace  = -2
)

// decodeFed decodes data under opt fed one way: wholeMap, inPlace, or
// through a reader chunk bytes at a time.
func decodeFed(data []byte, opt core.Options, chunk int) (*core.Stats, error) {
	switch chunk {
	case wholeMap:
		return core.Decode(data, opt)
	case inPlace:
		return stream.Decode(context.Background(), stream.Source{Data: data}, stream.Options{Options: opt})
	}
	return stream.Decode(context.Background(), stream.Source{R: bytes.NewReader(data)}, stream.Options{Options: opt, ChunkSize: chunk})
}

// sameDecode demands of one decode the frames and accounting of a reference
// decode of the same bytes — or a failure wherever the reference failed.
func sameDecode(t *testing.T, label string, got *collectSink, st *core.Stats, err error, ref *collectSink, refSt *core.Stats, refErr error) {
	t.Helper()
	if refErr != nil {
		// Damage the policy cannot absorb fails every mode and feeding.
		if err == nil {
			t.Fatalf("%s: decoded cleanly where the reference failed (%v)", label, refErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if st.Pictures != refSt.Pictures || st.Displayed != refSt.Displayed {
		t.Fatalf("%s: %d/%d pictures displayed, reference %d/%d",
			label, st.Displayed, st.Pictures, refSt.Displayed, refSt.Pictures)
	}
	if st.Errors != refSt.Errors || st.Concealed != refSt.Concealed {
		t.Fatalf("%s: error stats %+v (%d concealed), reference %+v (%d)", label, st.Errors, st.Concealed, refSt.Errors, refSt.Concealed)
	}
	if len(got.frames) != len(ref.frames) {
		t.Fatalf("%s: %d frames, reference %d", label, len(got.frames), len(ref.frames))
	}
	for i := range ref.frames {
		if !got.frames[i].Equal(ref.frames[i]) {
			t.Fatalf("%s: frame %d differs from the reference", label, i)
		}
	}
	if st.LeakedFrameBytes != 0 {
		t.Fatalf("%s: leaked %d frame bytes", label, st.LeakedFrameBytes)
	}
}

// matchFeedings decodes data under policy in every mode, fed from the whole
// map, in place and through a reader at each of the chunk sizes, and demands of every
// decode the frames and error accounting of the sequential mode fed from
// the whole map — and the same split accounting whatever the feeding.
func matchFeedings(t *testing.T, label string, data []byte, policy core.Resilience, chunks ...int) {
	t.Helper()
	var refSink collectSink
	refSt, refErr := core.Decode(data, core.Options{
		Mode: core.ModeSequential, Workers: 1, Resilience: policy, Sink: refSink.add,
	})
	for _, mode := range allModes {
		var split core.SplitStats
		for _, chunk := range append([]int{wholeMap, inPlace}, chunks...) {
			label := fmt.Sprintf("%s %v %v chunk %d", label, policy, mode, chunk)
			var sink collectSink
			st, err := decodeFed(data, core.Options{Mode: mode, Workers: 3, Resilience: policy, Sink: sink.add}, chunk)
			sameDecode(t, label, &sink, st, err, &refSink, refSt, refErr)
			if refErr != nil {
				continue
			}
			if chunk == wholeMap {
				split = st.Split
			} else if st.Split != split {
				t.Fatalf("%s: split stats %+v, fed from the whole map %+v", label, st.Split, split)
			}
		}
	}
}

var seqEnd = []byte{0, 0, 1, 0xB7}

// tile repeats a stream of closed groups, each under its own sequence
// header, n times over.
func tile(data []byte, n int) []byte {
	body := bytes.TrimSuffix(data, seqEnd)
	out := make([]byte, 0, len(body)*n+len(seqEnd))
	for i := 0; i < n; i++ {
		out = append(out, body...)
	}
	return append(out, seqEnd...)
}

// lateFault tiles the groups of data to a stream of n and damages group at
// alone: far enough in, every structure of the pipeline has let go of the
// stream's beginning many times over by then.
func lateFault(t *testing.T, data []byte, spec string, n, at int) []byte {
	t.Helper()
	sp, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := mustBatchScan(t, data, false)
	var out []byte
	for g := 0; g < n; g++ {
		gr := m.GOPs[g%len(m.GOPs)]
		group := data[gr.Offset:gr.End]
		if g == at {
			group, _ = sp.Apply(group, 2)
		}
		out = append(out, group...)
	}
	return append(out, seqEnd...)
}

// openGOPs rewrites every group but the first of a stream of I P B B groups
// as an open one: closed_gop cleared, and copies of the two B pictures put
// straight after the I picture as display pictures 0 and 1 — the pictures
// that, in a stream cut from a longer one, predict from the last P picture
// of the group before.
func openGOPs(t *testing.T, data []byte) []byte {
	t.Helper()
	m := mustBatchScan(t, data, false)
	var out []byte
	for gi, g := range m.GOPs {
		if gi == 0 {
			out = append(out, data[g.Offset:g.End]...)
			continue
		}
		ps := g.Pictures // decode order I0 P3 B1 B2
		hdr := bytes.Clone(data[g.Offset:ps[0].Offset])
		hdr[bytes.Index(hdr, []byte{0, 0, 1, 0xB8})+7] &^= 0x40 // closed_gop follows the 25-bit time code
		out = append(out, hdr...)
		for _, pt := range [][2]int{{0, 2}, {2, 0}, {3, 1}, {1, 5}, {2, 3}, {3, 4}} {
			pic := bytes.Clone(data[ps[pt[0]].Offset:ps[pt[0]].End])
			tref := pt[1] // temporal_reference: the ten bits after the startcode
			pic[4], pic[5] = byte(tref>>2), byte(tref&3)<<6|pic[5]&0x3F
			out = append(out, pic...)
		}
	}
	return append(out, seqEnd...)
}

// TestLadderPastTheWindow takes the resilience ladder to where the stream's
// beginning is long forgotten: damage in group 40 of 60 — a substitution
// source and a concealment reference planned after some forty groups have
// retired — and open groups whose leading B pictures have lost the group
// they predicted from. Every mode must agree with the sequential one,
// however the stream is fed.
func TestLadderPastTheWindow(t *testing.T) {
	clean := testStream(t, 352, 48, 12, 4) // wide enough for three tasks a picture
	for _, spec := range []string{"burst:count=2,len=24", "droppic:1"} {
		data := lateFault(t, clean, spec, 60, 40)
		for _, policy := range allPolicies[1:] {
			matchFeedings(t, spec, data, policy, 997, 64<<10)
		}
	}
	open := tile(openGOPs(t, clean), 20)
	for _, policy := range allPolicies {
		matchFeedings(t, "open groups", open, policy, 997, 64<<10)
	}
}

// TestPeakInFlightBounded is the memory acceptance: decoding an N-GOP
// stream through a reader must hold buffered bitstream bytes to the
// scan-ahead window plus one group, never the stream length. Decoding it
// from a scanned map holds no bytes of its own, and the same gauge reads
// the groups the window admits at once: a unit that borrows the stream is
// charged for its group, not for what it borrows.
func TestPeakInFlightBounded(t *testing.T) {
	data := testStream(t, 80, 48, 96, 4)
	m := mustBatchScan(t, data, false)
	maxGOP := 0
	for _, g := range m.GOPs {
		if n := g.End - g.Offset; n > maxGOP {
			maxGOP = n
		}
	}
	const chunk = 1024
	const maxInFlight = 2
	var sink collectSink
	st, err := stream.Decode(context.Background(), stream.Source{R: bytes.NewReader(data)}, stream.Options{
		Options: core.Options{
			Mode: core.ModeGOP, Workers: 2, MaxInFlight: maxInFlight, Sink: sink.add,
		},
		ChunkSize: chunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Displayed != m.TotalPictures {
		t.Fatalf("displayed %d of %d", st.Displayed, m.TotalPictures)
	}
	if st.PeakInFlightBytes <= 0 {
		t.Fatal("PeakInFlightBytes not recorded")
	}
	// Window slots can each pin a GOP-sized unit; the scan window holds
	// at most the open GOP plus scan-ahead and read slack.
	bound := int64((maxInFlight+2)*maxGOP + 4*chunk + core.ScanAheadBytes)
	if st.PeakInFlightBytes > bound {
		t.Fatalf("peak in-flight %d exceeds bound %d (max GOP %d)", st.PeakInFlightBytes, bound, maxGOP)
	}
	if bound >= int64(len(data)) {
		t.Fatalf("vacuous bound: stream %d bytes <= bound %d; enlarge the test stream", len(data), bound)
	}
	st, err = core.Decode(data, core.Options{Mode: core.ModeGOP, Workers: 2, MaxInFlight: maxInFlight})
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakInFlightBytes <= 0 || st.PeakInFlightBytes > int64(maxInFlight*maxGOP) {
		t.Fatalf("core.Decode: peak in-flight %d, want within (0, %d]: %d groups of at most %d bytes",
			st.PeakInFlightBytes, maxInFlight*maxGOP, maxInFlight, maxGOP)
	}
}

// decodeFn is one way of decoding a stream end to end.
type decodeFn func(ctx context.Context, data []byte, sink func(*frame.Frame)) (*core.Stats, error)

// everyWay is the four modes of the streaming pipeline and one stream
// through a Server (GOP-grain sessions on a shared pool), each on two
// workers with two groups in flight, reading chunk bytes at a time.
func everyWay(t *testing.T, chunk int, policy core.Resilience) (names []string, ways []decodeFn) {
	for _, mode := range allModes {
		mode := mode
		names = append(names, mode.String())
		ways = append(ways, func(ctx context.Context, data []byte, sink func(*frame.Frame)) (*core.Stats, error) {
			return stream.Decode(ctx, stream.Source{R: bytes.NewReader(data)}, stream.Options{
				Options:   core.Options{Mode: mode, Workers: 2, MaxInFlight: 2, Resilience: policy, Sink: sink},
				ChunkSize: chunk,
			})
		})
	}
	srv := server.NewServer(server.Config{Workers: 2})
	t.Cleanup(func() {
		srv.Close()
		if m := srv.Metrics(); m.SpareBytes != 0 {
			t.Errorf("server: %d bytes of spare frames after the last stream", m.SpareBytes)
		}
	})
	names = append(names, "server")
	ways = append(ways, func(ctx context.Context, data []byte, sink func(*frame.Frame)) (*core.Stats, error) {
		ss, err := srv.Decode(ctx, stream.Source{R: bytes.NewReader(data)}, server.StreamConfig{
			MaxInFlight: 2, Resilience: policy, Sink: sink, ChunkSize: chunk,
		})
		return ss.Stats, err
	})
	return names, ways
}

// TestDecodeHeapFlat is the memory acceptance on the heap itself, which
// TestPeakInFlightBounded's gauge only stands for. What a decode keeps live
// — the heap collected and read from the sink every few pictures and at the
// last, over what was live before the decode started (the input included),
// less the frames, whose number is the schedule's business and has its own
// test — must not depend on how much of the stream has gone by, and must be
// what the gauge says plus a constant: worker scratch, the plan and queue
// windows, the reorder buffer, 25–110 KB at this size.
func TestDecodeHeapFlat(t *testing.T) {
	const slack = 128 << 10
	short := tile(testStream(t, 80, 48, 16, 4), 3) // 12 groups, 48 pictures
	long := tile(short, 8)

	// What the heap pays for a frame: its planes as the allocator rounds them.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f := frame.New(80, 48)
	runtime.ReadMemStats(&m1)
	frameCost := int64(m1.TotalAlloc - m0.TotalAlloc)

	names, ways := everyWay(t, 16<<10, core.ConcealSlice)
	for wi, decode := range ways {
		var live [2]int64
		for i, data := range [][]byte{short, long} {
			total := 48 * (1 + 7*i)
			var ms runtime.MemStats
			runtime.GC()
			runtime.GC() // twice: what a sync.Pool held goes in two steps
			runtime.ReadMemStats(&ms)
			before, peak, shown := ms.HeapAlloc, uint64(0), 0
			st, err := decode(context.Background(), data, func(*frame.Frame) {
				if shown++; shown%8 == 0 || shown == total {
					runtime.GC()
					runtime.ReadMemStats(&ms)
					peak = max(peak, ms.HeapAlloc)
				}
			})
			if err != nil || shown != total {
				t.Fatalf("%s: %d of %d pictures, error %v", names[wi], shown, total, err)
			}
			live[i] = int64(peak) - int64(before) - st.FramesAllocated/int64(f.Bytes())*frameCost
			if gauge := st.PeakInFlightBytes; live[i] > gauge+slack {
				t.Errorf("%s: %d pictures: %d bytes live above the frames, PeakInFlightBytes says %d (+%d allowed)",
					names[wi], total, live[i], gauge, slack)
			}
		}
		t.Logf("%s: %d bytes live above the frames over 12 groups, %d over 96", names[wi], live[0], live[1])
		// The short run may have caught the scan-ahead window empty, or a
		// worker without a task yet, where the long run caught them full.
		if live[1] > live[0]+live[0]/4+slack/2 {
			t.Errorf("%s: %d bytes live over 96 groups, %d over 12: the decode holds on to the stream", names[wi], live[1], live[0])
		}
	}
}

// eofReader signals once its reader has returned io.EOF: whoever reads
// it has read the whole stream.
type eofReader struct {
	r    io.Reader
	once sync.Once
	eof  chan struct{}
}

func (e *eofReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		e.once.Do(func() { close(e.eof) })
	}
	return n, err
}

// TestScanLeadGauge pins the scan-lead gauge: with the display held
// back, the scan process must run ahead by more than one group. The first
// frame is held until the scanner has read the whole stream, so the gauge
// sees every group scanned and none displayed, however the goroutines
// are scheduled.
func TestScanLeadGauge(t *testing.T) {
	data := testStream(t, 80, 48, 12, 4)
	r := &eofReader{r: bytes.NewReader(data), eof: make(chan struct{})}
	first, scanned := true, true
	sink := func(f *frame.Frame) {
		if first {
			first = false
			select {
			case <-r.eof:
			case <-time.After(10 * time.Second):
				scanned = false
			}
		}
	}
	st, err := stream.Decode(context.Background(), stream.Source{R: r}, stream.Options{
		Options: core.Options{Mode: core.ModeGOP, Workers: 2, MaxInFlight: 4, Sink: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !scanned {
		t.Fatal("the scanner did not read the stream while the first frame was held")
	}
	if st.ScanLeadPeak < 8 {
		t.Fatalf("scan-lead peak %d; want the scanner at least two GOPs ahead of display", st.ScanLeadPeak)
	}
}

// waitGoroutines polls until the goroutine count returns to the
// baseline (workers and display must not outlive Decode).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running (baseline %d)\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancellation cancels mid-decode at several injection points in
// every mode and through a Server — the last of them some twenty-five groups
// in, long after the first pictures have left the plan and the queue — and
// asserts clean teardown: context error surfaced, no goroutine leaks, no
// frame-pool buffer loss.
func TestCancellation(t *testing.T) {
	data := tile(testStream(t, 64, 48, 12, 4), 20)
	names, ways := everyWay(t, 512, core.ConcealSlice)
	for wi, decode := range ways {
		cancelled := 0
		for _, after := range []int{0, 1, 3, 100} {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			shown := 0
			sink := func(f *frame.Frame) {
				shown++
				if shown == after {
					cancel()
				}
			}
			if after == 0 {
				cancel() // cancelled before the first byte
			}
			st, err := decode(ctx, data, sink)
			cancel()
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s after=%d: error %v, want context.Canceled", names[wi], after, err)
				}
				cancelled++
			} else if st.Displayed != st.Pictures {
				t.Fatalf("%s after=%d: clean run displayed %d of %d", names[wi], after, st.Displayed, st.Pictures)
			}
			if st == nil {
				if names[wi] == "server" && after == 0 {
					continue // turned away at admission: no session, no stats
				}
				t.Fatalf("%s after=%d: nil stats", names[wi], after)
			}
			if st.LeakedFrameBytes != 0 {
				t.Fatalf("%s after=%d: leaked %d frame bytes", names[wi], after, st.LeakedFrameBytes)
			}
			waitGoroutines(t, base)
		}
		if cancelled < 2 { // the one before the first byte, and at least one mid-stream
			t.Fatalf("%s: only %d runs actually cancelled; injection points too late", names[wi], cancelled)
		}
	}
}

// TestDeadline exercises context.WithTimeout through the same teardown
// path (the cmd-level -timeout flag rides on this).
func TestDeadline(t *testing.T) {
	data := testStream(t, 64, 48, 12, 4)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	st, err := stream.Decode(ctx, stream.Source{R: bytes.NewReader(data)}, stream.Options{
		Options: core.Options{Mode: core.ModeSliceImproved, Workers: 2},
	})
	if err == nil {
		t.Fatal("expired deadline must fail the decode")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want context.DeadlineExceeded", err)
	}
	if st.LeakedFrameBytes != 0 {
		t.Fatalf("leaked %d frame bytes", st.LeakedFrameBytes)
	}
	waitGoroutines(t, base)
}

// TestFailFastErrorTeardown: a decode error (not cancellation) must
// also tear down without leaking goroutines or frames — here forty groups
// in, with most of what was planned retired: a stream cut short, which fails
// the plan, and a damaged slice, which fails a worker in the middle of a
// group whose first pictures are already with the display process.
func TestFailFastErrorTeardown(t *testing.T) {
	clean := testStream(t, 64, 48, 12, 4)
	cut := tile(clean, 20)
	cut = cut[:len(cut)*2/3-100]
	names, ways := everyWay(t, 0, core.FailFast)
	for _, mut := range [][]byte{cut, lateFault(t, clean, "burst:count=2,len=24", 60, 40)} {
		for wi, decode := range ways {
			base := runtime.NumGoroutine()
			st, err := decode(context.Background(), mut, nil)
			if err == nil || st.Pictures < 100 {
				t.Fatalf("%s: error %v with %d pictures planned, want a failure well into the stream", names[wi], err, st.Pictures)
			}
			if st.LeakedFrameBytes != 0 {
				t.Fatalf("%s: leaked %d frame bytes", names[wi], st.LeakedFrameBytes)
			}
			waitGoroutines(t, base)
		}
	}
}

// TestScanTimeExcludesWaits: Stats.ScanTime is the scan's own work. A
// window of one group and a sink that naps 2 ms a frame keep the scan
// waiting for a place most of the decode, in the streaming decoder and in
// the service alike, and the scan time must not hold those waits.
func TestScanTimeExcludesWaits(t *testing.T) {
	const pics, nap = 30, 2 * time.Millisecond
	data := testStream(t, 64, 48, pics, 5)
	sink := func(*frame.Frame) { time.Sleep(nap) }
	st, err := stream.Decode(context.Background(), stream.Source{R: bytes.NewReader(data)}, stream.Options{
		Options: core.Options{Mode: core.ModeGOP, Workers: 1, MaxInFlight: 1, Sink: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(server.Config{Workers: 1})
	defer srv.Close()
	ss, err := srv.Decode(context.Background(), stream.Source{Data: data}, server.StreamConfig{MaxInFlight: 1, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*core.Stats{"stream": st, "server": ss.Stats} {
		if st.ScanTime <= 0 || st.ScanTime >= pics*nap/4 {
			t.Errorf("%s: scan time %v over %v of naps in the sink", name, st.ScanTime, pics*nap)
		}
	}
}
