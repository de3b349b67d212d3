package quant

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScaleLinear(t *testing.T) {
	for code := 1; code <= 31; code++ {
		if got := Scale(code, false); got != int32(code*2) {
			t.Fatalf("Scale(%d, linear) = %d", code, got)
		}
	}
}

func TestScaleNonLinearTable(t *testing.T) {
	// Spot values from Table 7-6.
	want := map[int]int32{1: 1, 8: 8, 9: 10, 16: 24, 17: 28, 24: 56, 25: 64, 31: 112}
	for code, s := range want {
		if got := Scale(code, true); got != s {
			t.Errorf("Scale(%d, nonlinear) = %d, want %d", code, got, s)
		}
	}
}

func TestScaleOutOfRange(t *testing.T) {
	if Scale(0, false) != 2 || Scale(40, false) != 2 {
		t.Fatal("out-of-range codes must clamp to code 1")
	}
}

func TestScaleCodeRoundTrip(t *testing.T) {
	for _, nl := range []bool{false, true} {
		for code := 1; code <= 31; code++ {
			s := Scale(code, nl)
			back := ScaleCode(s, nl)
			if Scale(back, nl) != s {
				t.Fatalf("ScaleCode(Scale(%d)) mismatch (nl=%v)", code, nl)
			}
		}
	}
}

func TestIntraDCMult(t *testing.T) {
	want := []int32{8, 4, 2, 1}
	for p, m := range want {
		if got := IntraDCMult(p); got != m {
			t.Errorf("IntraDCMult(%d) = %d, want %d", p, got, m)
		}
	}
}

func TestDefaultMatrices(t *testing.T) {
	if DefaultIntraMatrix[0] != 8 || DefaultIntraMatrix[63] != 83 {
		t.Fatal("intra matrix corners wrong")
	}
	for i, v := range DefaultNonIntraMatrix {
		if v != 16 {
			t.Fatalf("non-intra[%d] = %d", i, v)
		}
	}
}

func TestInverseIntraDC(t *testing.T) {
	var b [64]int32
	b[0] = 128 // quantized DC
	Inverse(&b, Params{Matrix: &DefaultIntraMatrix, Scale: 16, Intra: true, DCPrecision: 0})
	if b[0] != 1024 {
		t.Fatalf("DC dequant = %d, want 1024", b[0])
	}
}

func TestInverseNonIntraZeroStaysZero(t *testing.T) {
	var b [64]int32
	Inverse(&b, Params{Matrix: &DefaultNonIntraMatrix, Scale: 4, Intra: false})
	// Mismatch control toggles block[63] because the sum (0) is even.
	for i := 0; i < 63; i++ {
		if b[i] != 0 {
			t.Fatalf("b[%d] = %d", i, b[i])
		}
	}
	if b[63] != 1 {
		t.Fatalf("mismatch control should set b[63]=1, got %d", b[63])
	}
}

func TestMismatchControlOddSum(t *testing.T) {
	var b [64]int32
	b[0] = 1 // after intra scaling with mult 8 -> 8: even, so toggle happens
	Inverse(&b, Params{Matrix: &DefaultIntraMatrix, Scale: 2, Intra: true, DCPrecision: 0})
	sum := int32(0)
	for _, v := range b {
		sum += v
	}
	if sum&1 == 0 {
		t.Fatalf("post-mismatch sum must be odd, got %d", sum)
	}
}

func TestMismatchControlTogglesDown(t *testing.T) {
	var b [64]int32
	b[63] = 1 // non-intra: f = (2+1)*2*16/32 = 3 -> sum 3 odd, no toggle
	Inverse(&b, Params{Matrix: &DefaultNonIntraMatrix, Scale: 2, Intra: false})
	if b[63] != 3 {
		t.Fatalf("b[63] = %d, want 3 (odd sum, untouched)", b[63])
	}
	var c [64]int32
	c[62], c[63] = 1, 1 // both become 3, sum 6 even -> b[63] toggles to 2
	Inverse(&c, Params{Matrix: &DefaultNonIntraMatrix, Scale: 2, Intra: false})
	if c[63] != 2 {
		t.Fatalf("c[63] = %d, want 2 after downward toggle", c[63])
	}
}

func TestInverseSaturation(t *testing.T) {
	var b [64]int32
	b[1] = 2047
	Inverse(&b, Params{Matrix: &DefaultIntraMatrix, Scale: 112, Intra: true, DCPrecision: 3})
	if b[1] != 2047 {
		t.Fatalf("saturation failed: %d", b[1])
	}
	var c [64]int32
	c[1] = -2047
	Inverse(&c, Params{Matrix: &DefaultIntraMatrix, Scale: 112, Intra: true, DCPrecision: 3})
	if c[1] != -2048 {
		t.Fatalf("negative saturation failed: %d", c[1])
	}
}

// TestRoundTripAccuracy: quantize then dequantize must reconstruct within
// one quantization step for every coefficient.
func TestRoundTripAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, intra := range []bool{true, false} {
		m := &DefaultNonIntraMatrix
		if intra {
			m = &DefaultIntraMatrix
		}
		for trial := 0; trial < 300; trial++ {
			scaleCode := 1 + rng.Intn(31)
			p := Params{Matrix: m, Scale: Scale(scaleCode, false), Intra: intra, DCPrecision: 0}
			var orig [64]int32
			if intra {
				orig[0] = int32(rng.Intn(2040)) // biased DC, non-negative
			} else {
				orig[0] = int32(rng.Intn(2000) - 1000)
			}
			for i := 1; i < 64; i++ {
				orig[i] = int32(rng.Intn(2000) - 1000)
			}
			b := orig
			Forward(&b, p)
			Inverse(&b, p)
			for i := range b {
				step := 2 * p.Scale * int32(m[i]) / 32
				if intra && i == 0 {
					step = IntraDCMult(p.DCPrecision)
				}
				if step < 1 {
					step = 1
				}
				d := b[i] - orig[i]
				if d < 0 {
					d = -d
				}
				// Mismatch control can add 1 to coefficient 63.
				slack := step + 1
				if d > slack {
					t.Fatalf("intra=%v trial %d coef %d: orig %d got %d (step %d)",
						intra, trial, i, orig[i], b[i], step)
				}
			}
		}
	}
}

// TestForwardQuick: quantized levels are always codable.
func TestForwardQuick(t *testing.T) {
	f := func(raw [64]int16, scaleCode uint8, intra bool) bool {
		var b [64]int32
		for i := range raw {
			b[i] = int32(raw[i]) % 2048
		}
		if intra && b[0] < 0 {
			b[0] = -b[0]
		}
		m := &DefaultNonIntraMatrix
		if intra {
			m = &DefaultIntraMatrix
		}
		p := Params{Matrix: m, Scale: Scale(int(scaleCode%31)+1, false), Intra: intra}
		Forward(&b, p)
		for i, v := range b {
			if v < -2047 || v > 2047 {
				return false
			}
			if intra && i == 0 && v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDivRound(t *testing.T) {
	cases := []struct{ n, d, want int32 }{
		{7, 2, 4}, {-7, 2, -4}, {6, 4, 2}, {-6, 4, -2}, {5, 10, 1}, {-5, 10, -1}, {4, 10, 0},
	}
	for _, c := range cases {
		if got := divRound(c.n, c.d); got != c.want {
			t.Errorf("divRound(%d,%d) = %d, want %d", c.n, c.d, got, c.want)
		}
	}
}

func BenchmarkInverse(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	var blk [64]int32
	for i := range blk {
		blk[i] = int32(rng.Intn(64) - 32)
	}
	p := Params{Matrix: &DefaultIntraMatrix, Scale: 16, Intra: true}
	for i := 0; i < b.N; i++ {
		tmp := blk
		Inverse(&tmp, p)
	}
}

// inverseDenseRef is the pre-sparsity Inverse, kept verbatim as the oracle:
// InverseSparse must produce bit-identical blocks for every input.
func inverseDenseRef(block *[64]int32, p Params) {
	var sum int32
	start := 0
	if p.Intra {
		block[0] *= IntraDCMult(p.DCPrecision)
		block[0] = saturate(block[0])
		sum = block[0]
		start = 1
	}
	for i := start; i < 64; i++ {
		qf := block[i]
		if qf == 0 && !p.Intra {
			continue
		}
		var f int32
		if p.Intra {
			f = (2 * qf * p.Scale * int32(p.Matrix[i])) / 32
		} else {
			k := int32(0)
			if qf > 0 {
				k = 1
			} else if qf < 0 {
				k = -1
			}
			f = ((2*qf + k) * p.Scale * int32(p.Matrix[i])) / 32
		}
		f = saturate(f)
		block[i] = f
		sum += f
	}
	if sum&1 == 0 {
		if block[63]&1 != 0 {
			block[63]--
		} else {
			block[63]++
		}
	}
}

// randQuantBlock returns a block with nnz nonzero levels at random raster
// positions (plus, for intra, a DC term that may be zero) and the matching
// Params.
func randQuantBlock(rng *rand.Rand, intra bool) ([64]int32, Params, int) {
	var b [64]int32
	nnz := 0
	if intra {
		b[0] = int32(rng.Intn(512) - 128) // may be negative or zero pre-mult
		if b[0] != 0 {
			nnz++
		}
	}
	for n := rng.Intn(12); n > 0; n-- {
		i := 1 + rng.Intn(63)
		if b[i] != 0 {
			continue
		}
		v := int32(rng.Intn(401) - 200)
		if v == 0 {
			v = 1
		}
		b[i] = v
		nnz++
	}
	m := &DefaultNonIntraMatrix
	if intra {
		m = &DefaultIntraMatrix
	}
	p := Params{
		Matrix:      m,
		Scale:       Scale(1+rng.Intn(31), rng.Intn(2) == 1),
		Intra:       intra,
		DCPrecision: rng.Intn(4),
	}
	return b, p, nnz
}

// TestInverseSparseMatchesDense: identical block contents, a rowMask that
// covers every live row, and an exact dcOnly — for both intra and
// non-intra blocks, with nnz passed both exactly and as the unknown 64.
func TestInverseSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 4000; trial++ {
		intra := trial%2 == 0
		b, p, nnz := randQuantBlock(rng, intra)
		if trial%3 == 0 {
			nnz = 64 // callers without a count must still be exact
		}

		dense := b
		inverseDenseRef(&dense, p)

		sparse := b
		rowMask, dcOnly := InverseSparse(&sparse, p, nnz)

		if sparse != dense {
			t.Fatalf("trial %d (intra=%v): block mismatch\nin:     %v\nsparse: %v\ndense:  %v",
				trial, intra, b, sparse, dense)
		}
		for i, v := range dense {
			if v != 0 && rowMask&(1<<uint(i>>3)) == 0 {
				t.Fatalf("trial %d: nonzero at %d but row %d not in mask %02x",
					trial, i, i>>3, rowMask)
			}
			if i > 0 && v != 0 && dcOnly {
				t.Fatalf("trial %d: dcOnly with nonzero AC at %d", trial, i)
			}
		}
	}
}

// TestInverseSparseMismatchToggle pins the two mismatch-control corners:
// the toggle creating a nonzero block[63] from an otherwise DC-even block
// (so dcOnly must be false), and a DC-odd block staying genuinely DC-only.
func TestInverseSparseMismatchToggle(t *testing.T) {
	p := Params{Matrix: &DefaultIntraMatrix, Scale: 2, Intra: true, DCPrecision: 3}

	var even [64]int32
	even[0] = 4 // DC mult 1 -> sum 4, even -> block[63] becomes 1
	rowMask, dcOnly := InverseSparse(&even, p, 1)
	if even[63] != 1 || dcOnly || rowMask&0x80 == 0 {
		t.Fatalf("even DC: block[63]=%d dcOnly=%v mask=%02x", even[63], dcOnly, rowMask)
	}

	var odd [64]int32
	odd[0] = 5 // sum odd -> no toggle -> truly DC-only
	rowMask, dcOnly = InverseSparse(&odd, p, 1)
	if odd[63] != 0 || !dcOnly || rowMask != 1 {
		t.Fatalf("odd DC: block[63]=%d dcOnly=%v mask=%02x", odd[63], dcOnly, rowMask)
	}
}

// checkMasked runs InverseMasked on b with its exact mask and holds the
// result to the dense reference: the same block, a rowMask that covers
// every live row, and a dcOnly that is true only without live AC terms.
func checkMasked(t *testing.T, name string, b [64]int32, p Params) {
	t.Helper()
	dense := b
	inverseDenseRef(&dense, p)
	got := b
	rowMask, dcOnly := InverseMasked(&got, p, Mask(&b, 64))
	if got != dense {
		t.Fatalf("%s: block mismatch\nin:     %v\nmasked: %v\ndense:  %v", name, b, got, dense)
	}
	ac := false
	for i, v := range dense {
		if v != 0 && rowMask&(1<<uint(i>>3)) == 0 {
			t.Fatalf("%s: nonzero at %d but row %d not in mask %02x", name, i, i>>3, rowMask)
		}
		ac = ac || v != 0 && (i > 0 || !p.Intra)
	}
	if dcOnly && ac {
		t.Fatalf("%s: dcOnly with a live AC term in %v", name, dense)
	}
	if !dcOnly && !ac && b[63] == 0 {
		// Only a block[63] that mismatch control toggled back to zero may
		// leave dcOnly conservatively false.
		t.Fatalf("%s: dcOnly false without a live AC term in %v", name, dense)
	}
}

// TestInverseMaskedMatchesDense: the mask-driven loop against the dense
// reference over random sparse blocks, and over the corners it could get
// wrong: saturation at both ends, an empty mask, an intra DC of zero (whose
// bit is clear), and the mismatch toggle in both directions.
func TestInverseMaskedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 4000; trial++ {
		b, p, _ := randQuantBlock(rng, trial%2 == 0)
		if trial%5 == 0 { // levels that saturate, either sign
			b[1+rng.Intn(63)] = int32(2047 - rng.Intn(40))
			b[1+rng.Intn(63)] = -int32(2047 - rng.Intn(40))
			p.Scale = Scale(20+rng.Intn(12), true)
		}
		if trial%7 == 0 {
			b[63] = int32(rng.Intn(5) - 2)
		}
		checkMasked(t, "random", b, p)
	}

	intra := Params{Matrix: &DefaultIntraMatrix, Scale: 2, Intra: true, DCPrecision: 3}
	inter := Params{Matrix: &DefaultNonIntraMatrix, Scale: 2}
	checkMasked(t, "empty non-intra", [64]int32{}, inter)
	checkMasked(t, "intra, DC 0", [64]int32{}, intra)
	checkMasked(t, "intra, DC 0 and one AC", [64]int32{9: -3}, intra)
	checkMasked(t, "intra, negative DC", [64]int32{0: -5}, intra)
	checkMasked(t, "non-intra DC only", [64]int32{0: 7}, inter)
	checkMasked(t, "saturate high", [64]int32{5: 2047}, Params{Matrix: &DefaultIntraMatrix, Scale: 112, Intra: true})
	checkMasked(t, "saturate low", [64]int32{5: -2047}, Params{Matrix: &DefaultNonIntraMatrix, Scale: 112})
	// (2·1+1)·2·16/32 = 3: one such term is odd and stays; two are even
	// and block[63] steps 3 → 2; an even sum elsewhere steps it 0 → 1; and
	// a 1 at block[63] with an odd partner steps it back to 0.
	checkMasked(t, "toggle none", [64]int32{63: 1}, inter)
	checkMasked(t, "toggle down", [64]int32{62: 1, 63: 1}, inter)
	checkMasked(t, "toggle up from zero", [64]int32{1: 1, 2: 1}, inter)
	one := Params{Matrix: &DefaultIntraMatrix, Scale: 1, Intra: true, DCPrecision: 3} // 2·1·1·W/32 with W[63]=83 → 5; W[1]=16 → 1
	checkMasked(t, "toggle to zero", [64]int32{0: 1, 1: 1, 63: 0}, one)

	got := [64]int32{0: 3}
	if rowMask, dcOnly := InverseMasked(&got, intra, 0); !dcOnly || rowMask != 1 || got != [64]int32{0: 3} {
		t.Fatalf("intra DC with an empty mask: %v rowMask %02x dcOnly %v", got, rowMask, dcOnly)
	}
}

// TestInverseFrontEndsUnchanged pins Inverse and InverseSparse — the entry
// points the encoder and the benchmark's replay call — to what they returned
// before they became front ends of InverseMasked: one hash over blocks,
// row masks and dcOnly flags of 6000 seeded inputs, with nnz exact, unknown
// (64) and short of the real count (which stops the scan early), recorded
// at the parent commit.
func TestInverseFrontEndsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for trial := 0; trial < 6000; trial++ {
		b, p, nnz := randQuantBlock(rng, trial%2 == 0)
		if trial%5 == 0 {
			b[1+rng.Intn(63)] = int32(2047 - rng.Intn(40))
			b[1+rng.Intn(63)] = -int32(2047 - rng.Intn(40))
			p.Scale = Scale(20+rng.Intn(12), true)
			nnz = 64
		}
		switch trial % 3 {
		case 1:
			nnz = 64
		case 2:
			nnz = max(0, nnz-1-rng.Intn(2))
		}
		sparse := b
		rowMask, dcOnly := InverseSparse(&sparse, p, nnz)
		dense := b
		Inverse(&dense, p)
		for i := range sparse {
			mix(uint64(uint32(sparse[i])))
			mix(uint64(uint32(dense[i])))
		}
		mix(uint64(rowMask))
		if dcOnly {
			mix(1)
		}
	}
	const recorded = 0x8b60256c0f57252e // at commit bd83aef
	if h != recorded {
		t.Fatalf("front ends changed: hash %#x, recorded %#x", h, uint64(recorded))
	}
}

// sparseBenchBlocks returns n blocks of about seven coefficients in the low
// zigzag positions, as an 8 Mb/s intra stream codes them.
func sparseBenchBlocks(n int) ([][64]int32, []uint64) {
	rng := rand.New(rand.NewSource(6))
	low := [16]int{1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12}
	blks, masks := make([][64]int32, n), make([]uint64, n)
	for k := range blks {
		blks[k][0] = int32(64 + rng.Intn(64))
		for c := rng.Intn(13); c > 0; c-- {
			blks[k][low[rng.Intn(len(low))]] = int32(rng.Intn(9) - 4)
		}
		masks[k] = Mask(&blks[k], 64)
	}
	return blks, masks
}

// BenchmarkInverseMasked is the dequantisation of reconstruction: the mask
// comes from the VLC stage.
func BenchmarkInverseMasked(b *testing.B) {
	blks, masks := sparseBenchBlocks(512)
	p := Params{Matrix: &DefaultIntraMatrix, Scale: 16, Intra: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmp := blks[i%len(blks)]
		InverseMasked(&tmp, p, masks[i%len(blks)])
	}
}

// BenchmarkInverseSparse is the same work through the front end that first
// has to find the coefficients.
func BenchmarkInverseSparse(b *testing.B) {
	blks, masks := sparseBenchBlocks(512)
	p := Params{Matrix: &DefaultIntraMatrix, Scale: 16, Intra: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmp := blks[i%len(blks)]
		InverseSparse(&tmp, p, bits.OnesCount64(masks[i%len(blks)]))
	}
}
