package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"mpeg2par/internal/faults"
	"mpeg2par/internal/memtrace"
)

// traceRecord holds what the deterministic trace generator emitted for one
// fixed stream at the commit before the generator moved onto the plan
// (PR 23). It is fixed test data: experiments/pr23-one-engine/README.md
// says how it was made.
const traceRecord = "testdata/trace-parent.txt"

// traceDigest renders one generator run: event count, bytes read and
// written per processor, and the first and last 16 events verbatim.
func traceDigest(name string, evs []memtrace.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d events\n", name, len(evs))
	var rd, wr [4]int64
	for _, e := range evs {
		if e.Write {
			wr[e.Proc] += int64(e.Size)
		} else {
			rd[e.Proc] += int64(e.Size)
		}
	}
	for p := range rd {
		fmt.Fprintf(&b, "  proc %d: read %d written %d\n", p, rd[p], wr[p])
	}
	show := func(from, to int) {
		for i := max(from, 0); i < min(to, len(evs)); i++ {
			e := evs[i]
			fmt.Fprintf(&b, "  [%d] proc %d write %v size %d addr %#x\n", i, e.Proc, e.Write, e.Size, e.Addr)
		}
	}
	show(0, 16)
	show(len(evs)-16, len(evs))
	return b.String()
}

// TestTraceGeneratorMatchesRecord pins the memory-reference stream of the
// deterministic generator — event for event where it is shown, byte for
// byte per processor overall — to the record of the generator it replaced,
// over two IBBP groups of 96×80 (five slices a picture).
func TestTraceGeneratorMatchesRecord(t *testing.T) {
	res := testStream(t, 96, 80, 26, 13)
	var got strings.Builder
	run := func(name string, mode Mode, procs int, bands bool) {
		rec := memtrace.NewRecorder()
		if err := TraceDecodeAssign(res.Data, mode, procs, bands, rec); err != nil {
			t.Fatal(err)
		}
		got.WriteString(traceDigest(name, rec.Events()))
	}
	run("gop procs=1", ModeGOP, 1, false)
	run("gop procs=4", ModeGOP, 4, false)
	run("slice-simple procs=4 affinity=none", ModeSliceSimple, 4, false)
	run("slice-simple procs=4 affinity=row", ModeSliceSimple, 4, true)
	want, err := os.ReadFile(traceRecord)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("trace differs from %s:\n%s", traceRecord, got.String())
	}
}

// TestTraceRejectsUncoveredPicture: a stream whose dropped slices leave
// pictures uncovered scans cleanly, but no decoder under FailFast would
// ship those pictures, so the trace generator fails on it in every mode —
// not only in GOP mode.
func TestTraceRejectsUncoveredPicture(t *testing.T) {
	res := testStream(t, 96, 80, 26, 13)
	sp, err := faults.Parse("dropslice:3")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		mut, _ := sp.Apply(res.Data, seed)
		if _, err := Scan(mut); err != nil {
			t.Fatalf("seed %d: the damaged stream does not scan: %v", seed, err)
		}
		for _, mode := range []Mode{ModeSequential, ModeGOP, ModeSliceSimple, ModeSliceImproved} {
			for _, bands := range []bool{false, true} {
				err := TraceDecodeAssign(mut, mode, 4, bands, memtrace.NewRecorder())
				if err == nil || !strings.Contains(err.Error(), "covered") {
					t.Fatalf("seed %d %v bands=%v: err %v, want an uncovered picture", seed, mode, bands, err)
				}
			}
		}
	}
}
