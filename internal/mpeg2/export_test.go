package mpeg2

import "mpeg2par/internal/bits"

// BlockCoder runs the block layer of the slice codec on its own, for the
// benchmarks of the external test package (which may import the encoder;
// this package's own tests may not).
type BlockCoder struct{ st sliceState }

// NewBlockCoder returns a BlockCoder at the start-of-slice state.
func NewBlockCoder(p *PictureParams) *BlockCoder {
	c := &BlockCoder{}
	c.st.init(p, 1)
	return c
}

// Reset returns the DC predictors to their start-of-slice value.
func (c *BlockCoder) Reset() { c.st.resetDC() }

// Encode writes block i (0..5) of a macroblock.
func (c *BlockCoder) Encode(w *bits.Writer, blk *[64]int32, intra bool, i int) error {
	cc, luma := blockComponent(i)
	return c.st.encodeBlock(w, blk, intra, cc, luma)
}

// Decode reads block i (0..5) of a macroblock and returns its mask.
func (c *BlockCoder) Decode(r *bits.Reader, blk *[64]int32, intra bool, i int) (uint64, error) {
	cc, luma := blockComponent(i)
	return c.st.decodeBlock(r, blk, intra, cc, luma)
}
