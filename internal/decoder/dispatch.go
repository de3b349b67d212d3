package decoder

import (
	"runtime"

	"mpeg2par/internal/kernels"
)

// asmBlock reconstructs every coded block with dct.ReconBlock, amd64's
// AVX2 kernel that dequantizes, transforms and stores a block in one
// call. asmStore routes the clamped block stores of the other path
// through the architecture kernels in store_*.s (arm64). Both are driven
// by the kernel dispatch level: LevelASM enables them where this
// architecture has the kernels, LevelScalar additionally forces the
// branchy per-pixel store loops so the three tiers are independently
// testable.
var asmBlock, asmStore bool

func init() {
	kernels.Register(func(l kernels.Level) {
		asmBlock = runtime.GOARCH == "amd64" && l == kernels.LevelASM
		asmStore = haveStoreAsm && l == kernels.LevelASM
		scalarStore = l == kernels.LevelScalar
	})
}
