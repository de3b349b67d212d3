// Package kernels is the runtime dispatch layer for the decoder's
// reconstruction kernels: motion compensation, and the path of a coded
// block from quantized levels to pixels (dequantization, IDCT, clamped
// store or residual add). Three tiers exist:
//
//   - LevelScalar: byte-at-a-time reference loops — the bit-exactness
//     oracle every other tier is tested against.
//   - LevelSWAR: portable SIMD-within-a-register kernels (8 pixels per
//     uint64), the default on architectures without assembly kernels and
//     the tier the race detector can see into.
//   - LevelASM: build-tagged Go assembly, selected at init when the CPU
//     supports it.
//
// The package is a leaf: the kernel packages (internal/motion,
// internal/decoder, internal/dct) import it and register an applier;
// Set fans the active level out to every registered applier. What the
// asm tier covers is per architecture, each package's applier keeping
// the SWAR code for the rest: on amd64 (AVX2) motion compensation, the
// IDCT, and one call that turns a coded block into pixels
// (dct.ReconBlock), which is all the decoder's block path is there; on
// arm64 (NEON) motion compensation and the clamped stores, with
// dequantization and the IDCT in Go.
//
// The MPEG2_KERNELS environment variable (scalar | swar | asm) forces a
// tier at process start — CI runs the full golden bit-exactness and fuzz
// suites under each value. Forcing asm on a CPU without the required
// features silently clamps to swar, so a binary is always runnable.
package kernels

import (
	"fmt"
	"os"
	"sync"
)

// Level is a kernel tier.
type Level int

const (
	// LevelScalar forces the reference loops.
	LevelScalar Level = iota
	// LevelSWAR selects the portable uint64 kernels.
	LevelSWAR
	// LevelASM selects the architecture-specific assembly kernels.
	LevelASM
)

func (l Level) String() string {
	switch l {
	case LevelScalar:
		return "scalar"
	case LevelSWAR:
		return "swar"
	case LevelASM:
		return "asm"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// ParseLevel converts a string (scalar | swar | asm) to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "scalar":
		return LevelScalar, nil
	case "swar":
		return LevelSWAR, nil
	case "asm":
		return LevelASM, nil
	}
	return 0, fmt.Errorf("kernels: unknown level %q (want scalar, swar or asm)", s)
}

// EnvVar is the environment variable that forces a kernel level at
// process start.
const EnvVar = "MPEG2_KERNELS"

var (
	mu       sync.Mutex
	active   Level
	appliers []func(Level)
)

func init() {
	active = defaultLevel()
}

// defaultLevel resolves the startup tier: the MPEG2_KERNELS override if
// set (clamped to what the host supports), else the best supported tier.
func defaultLevel() Level {
	l := LevelSWAR
	if hasASM() {
		l = LevelASM
	}
	if v := os.Getenv(EnvVar); v != "" {
		if forced, err := ParseLevel(v); err == nil {
			l = forced
		}
	}
	if l == LevelASM && !hasASM() {
		l = LevelSWAR
	}
	return l
}

// Active returns the current kernel level. Kernel packages read their own
// registered copy on the hot path; this is the observability gauge.
func Active() Level {
	mu.Lock()
	defer mu.Unlock()
	return active
}

// Supported returns the highest tier the host CPU can run.
func Supported() Level {
	if hasASM() {
		return LevelASM
	}
	return LevelSWAR
}

// CPUFeatures describes the detected SIMD capability of the host
// ("avx2", "neon", or "none").
func CPUFeatures() string { return cpuFeatures() }

// Set makes l the active level, fanning it out to every registered kernel
// package. Requesting LevelASM on a host without assembly support clamps
// to LevelSWAR. It returns the level actually applied.
func Set(l Level) Level {
	if l == LevelASM && !hasASM() {
		l = LevelSWAR
	}
	mu.Lock()
	active = l
	fns := append([]func(Level){}, appliers...)
	mu.Unlock()
	for _, fn := range fns {
		fn(l)
	}
	return l
}

// Register adds an applier a kernel package uses to switch its internal
// dispatch, calling it immediately with the active level. Packages call
// this from init; the applier must be safe to call between decodes.
func Register(fn func(Level)) {
	mu.Lock()
	appliers = append(appliers, fn)
	l := active
	mu.Unlock()
	fn(l)
}

// Describe returns the active tier with its hardware context, e.g.
// "asm(avx2)" or "swar". This is the string Stats and the perf harness
// record.
func Describe() string {
	l := Active()
	if l == LevelASM {
		return fmt.Sprintf("asm(%s)", cpuFeatures())
	}
	return l.String()
}
