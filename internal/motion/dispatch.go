package motion

import "mpeg2par/internal/kernels"

// asmKernels routes the half-pel interpolation and bidirectional-average
// kernels to the architecture-specific assembly implementations. It is
// only ever true when the build provides them (haveAsm) and the active
// kernel level is LevelASM; levels are switched between decodes, so the
// hot paths read it without synchronization.
var asmKernels = false

func init() {
	kernels.Register(func(l kernels.Level) {
		asmKernels = haveAsm && l == kernels.LevelASM
		scalarKernels = l == kernels.LevelScalar
	})
}
