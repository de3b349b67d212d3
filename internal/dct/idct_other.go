//go:build !amd64

package dct

// haveIDCTAsm is false without the AVX2 kernel; the dispatch layer never
// routes here, so the stubs are unreachable.
const haveIDCTAsm = false

func idctAsm(blk *[64]int32) {
	panic("dct: no assembly IDCT on this architecture")
}

// ReconBlock is amd64's coded-block kernel (see idct_amd64.go).
func ReconBlock(dst *byte, stride int, qf *[64]int32, d *Dequant, add bool) {
	panic("dct: no coded-block kernel on this architecture")
}
