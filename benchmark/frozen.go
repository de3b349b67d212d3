package main

import "time"

// Constants frozen on the build host (2 CPUs, see README.md "How the
// constants were frozen"). Nothing here is calibrated at run time: a
// result is comparable with another only when these are the same, so the
// manifest of every result carries them. Changing one re-bases every
// normalised number and is a benchmark change, not a tuning knob.

// refNominal is the reference loop's speed, in passes per second summed
// over the goroutines it runs on, that normalised times are scaled to.
var refNominal = map[int]float64{
	1: 565.0,
	2: 1110.0,
}

const (
	// pacedOfferedPicsPerS is the total picture rate svc-paced offers:
	// half the closed-loop capacity of the same stream on the build host.
	pacedOfferedPicsPerS = 5000.0
	// pacedConcurrency is the mean number of streams in flight; each
	// stream is paced at pacedOfferedPicsPerS / pacedConcurrency.
	pacedConcurrency = 6
	// pacedInFlight caps the streams nominally in flight: the schedule
	// holds an arrival back until the one pacedInFlight before it has
	// nominally ended.
	pacedInFlight = 8
	// pacedQueueDepth is svc-paced's admission queue (the default is 4).
	pacedQueueDepth = 64
	// frameDeadline is the latency limit of svc-paced (WithFrameDeadline
	// and the harness's own from-due miss count).
	frameDeadline = 33 * time.Millisecond

	// saturateClients each resubmit a stream as soon as the last returns.
	// Four unpaced streams at the server's flat demand of 0.5 fill a
	// two-worker pool exactly, so none waits for admission.
	saturateClients = 4
)

// settings are the lengths of the protocol's parts. The defaults are the
// ones every reported number uses; only the smoke test shortens them.
type settings struct {
	sliceLen      time.Duration // one timed slice of a closed-loop workload
	pacedSliceLen time.Duration // one timed slice of svc-paced
	refLen        time.Duration // reference loop before and after each slice
	setupReps     int           // set-up repetitions (median reported)
	offeredScale  float64       // scales svc-paced's offered rate (1 but in the smoke test)
	traceDir      string        // where --trace 1 writes the trace file
}

var defaultSettings = settings{
	sliceLen:      200 * time.Millisecond,
	pacedSliceLen: 400 * time.Millisecond,
	refLen:        80 * time.Millisecond,
	setupReps:     3,
	offeredScale:  1,
	traceDir:      ".bench_build",
}
