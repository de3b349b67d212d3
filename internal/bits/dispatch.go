package bits

import "mpeg2par/internal/kernels"

func init() {
	kernels.Register(func(l kernels.Level) {
		scalarScan = l == kernels.LevelScalar
	})
}
