// Package transform implements the 8×8 block transform stage of the SiEVE
// codec: a floating-point DCT-II/DCT-III pair applied through fixed-point
// entry points, JPEG-style quantisation with a quality-scaled matrix, and
// the zig-zag scan that orders coefficients for run-length entropy coding.
package transform

import (
	"math"
	"math/bits"

	"sieve/internal/cpu"
)

// BlockSize is the transform block edge length in pixels.
const BlockSize = 8

// Block is an 8×8 block of spatial samples or transform coefficients in
// row-major order.
type Block [BlockSize * BlockSize]int32

var (
	// cosTable[u][x] = cos((2x+1)uπ/16) * c(u)/2 with c(0)=1/√2, c(u≠0)=1.
	cosTable [BlockSize][BlockSize]float64
	// cosByX[x][u] = cosTable[u][x], so the inverse can walk u contiguously.
	cosByX [BlockSize][BlockSize]float64
	// zigzag[i] is the raster index of the i-th coefficient in scan order.
	zigzag [BlockSize * BlockSize]int
	// unitQuant dequantises by 1: Inverse is Quantizer.Inverse without a
	// matrix.
	unitQuant [BlockSize * BlockSize]int32
)

// cosine is cosTable[u][x]: cos((2x+1)uπ/16) * c(u)/2.
func cosine(u, x int) float64 {
	c := 1.0
	if u == 0 {
		c = 1 / math.Sqrt2
	}
	return c / 2 * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16)
}

func init() {
	for u := 0; u < BlockSize; u++ {
		for x := 0; x < BlockSize; x++ {
			cosTable[u][x] = cosine(u, x)
			cosByX[x][u] = cosTable[u][x]
		}
	}
	for i := range unitQuant {
		unitQuant[i] = 1
	}
	// Standard JPEG zig-zag order.
	i := 0
	for s := 0; s < 2*BlockSize-1; s++ {
		if s%2 == 0 { // up-right
			x, y := 0, s
			if y >= BlockSize {
				y = BlockSize - 1
				x = s - y
			}
			for x < BlockSize && y >= 0 {
				zigzag[i] = y*BlockSize + x
				i++
				x++
				y--
			}
		} else { // down-left
			y, x := 0, s
			if x >= BlockSize {
				x = BlockSize - 1
				y = s - x
			}
			for y < BlockSize && x >= 0 {
				zigzag[i] = y*BlockSize + x
				i++
				y++
				x--
			}
		}
	}
}

// The transforms below are bit-exact restatements of the textbook separable
// loops (s = 0; s += in[k]*cos[k], k ascending; round half to even): every
// output is the same products added in the same order, so the bitstream does
// not depend on which form runs. Four rules keep that true:
//
//   - every product is wrapped in float64(), which forbids the compiler from
//     fusing it with the following add into an FMA (one rounding instead of
//     two) on platforms that have one;
//   - a sum may start from its first product instead of 0, and a term whose
//     input is exactly zero may be dropped: x + ±0 == x, and a sum that is
//     itself ±0 ends up as int32 0 either way;
//   - nothing else is reordered, factored or shared — the DCT's butterfly
//     symmetries all change the order of additions, and even the mirror
//     symmetry cos[u][7−x] = ±cos[u][x] cannot share a product: in cosTable
//     27 of the 32 pairs differ in their last bits;
//   - the final rounding must give math.RoundToEven's value, by any exact
//     means (roundHalfEven).
//
// reference_test.go holds the textbook loops and the tests that compare them
// with these on random, sparse, extreme and rounding-tie inputs.

// dot8 is one output of a pass: the left-associated sum of eight products.
func dot8(x0, x1, x2, x3, x4, x5, x6, x7 float64, c *[BlockSize]float64) float64 {
	return float64(x0*c[0]) + float64(x1*c[1]) + float64(x2*c[2]) + float64(x3*c[3]) +
		float64(x4*c[4]) + float64(x5*c[5]) + float64(x6*c[6]) + float64(x7*c[7])
}

// Forward applies the 2-D DCT-II to src (spatial samples, typically centred
// around zero by subtracting 128 or a prediction) writing coefficients to dst.
// On an AVX2 CPU it runs forwardAVX2 (forward_amd64.s), which computes the
// same products in the same order four outputs at a time; elsewhere
// forwardGo.
func Forward(src, dst *Block) {
	if cpu.AVX2 {
		forwardAVX2(src, dst)
		return
	}
	forwardGo(src, dst)
}

// forwardGo is the Go kernel of Forward, and the oracle its assembly is
// tested against.
func forwardGo(src, dst *Block) {
	var tmp [BlockSize * BlockSize]float64
	// Rows: each sample is converted once, not once per output.
	for y := 0; y < BlockSize; y++ {
		r := src[y*BlockSize : y*BlockSize+BlockSize : y*BlockSize+BlockSize]
		x0, x1, x2, x3 := float64(r[0]), float64(r[1]), float64(r[2]), float64(r[3])
		x4, x5, x6, x7 := float64(r[4]), float64(r[5]), float64(r[6]), float64(r[7])
		t := tmp[y*BlockSize : y*BlockSize+BlockSize : y*BlockSize+BlockSize]
		for u := range t {
			t[u] = dot8(x0, x1, x2, x3, x4, x5, x6, x7, &cosTable[u])
		}
	}
	// Columns.
	for u := 0; u < BlockSize; u++ {
		x0, x1, x2, x3 := tmp[u], tmp[BlockSize+u], tmp[2*BlockSize+u], tmp[3*BlockSize+u]
		x4, x5, x6, x7 := tmp[4*BlockSize+u], tmp[5*BlockSize+u], tmp[6*BlockSize+u], tmp[7*BlockSize+u]
		for v := 0; v < BlockSize; v++ {
			dst[v*BlockSize+u] = int32(math.RoundToEven(dot8(x0, x1, x2, x3, x4, x5, x6, x7, &cosTable[v])))
		}
	}
}

// Inverse applies the 2-D DCT-III (inverse DCT), reconstructing spatial
// samples from coefficients.
func Inverse(src, dst *Block) { inverse(src, &unitQuant, dst) }

// inverse reconstructs the samples of the coefficients src[i]*q[i]. It is
// sparsity-aware: a dequantised block carries a handful of non-zero
// coefficients (at edge_quiet 7.7 of 64, over 4.2 rows and 4.2 columns), so
// the column pass visits only rows and columns of src that hold one and the
// row pass only those columns. Everything skipped is a product with an exact
// zero.
func inverse(src *Block, q *[BlockSize * BlockSize]int32, dst *Block) {
	rows, cols := scanMasks(src)
	inverseMasked(src, q, rows, cols, dst)
}

// scanMasks finds the non-empty rows (bit v of rows) and columns (bit u of
// cols) of src in one pass.
func scanMasks(src *Block) (rows, cols uint) {
	var c0, c1, c2, c3, c4, c5, c6, c7 int32
	for v := 0; v < BlockSize; v++ {
		r := src[v*BlockSize : v*BlockSize+BlockSize : v*BlockSize+BlockSize]
		c0, c1, c2, c3 = c0|r[0], c1|r[1], c2|r[2], c3|r[3]
		c4, c5, c6, c7 = c4|r[4], c5|r[5], c6|r[6], c7|r[7]
		if r[0]|r[1]|r[2]|r[3]|r[4]|r[5]|r[6]|r[7] != 0 {
			rows |= 1 << uint(v)
		}
	}
	for u, c := range [BlockSize]int32{c0, c1, c2, c3, c4, c5, c6, c7} {
		if c != 0 {
			cols |= 1 << uint(u)
		}
	}
	return rows, cols
}

// InverseMasked is Inverse for levels whose non-zero entries all lie in the
// rows set in rows and the columns set in cols (bit i for row or column i):
// a coder that records them while it writes or parses the levels saves
// Inverse its scan. The masks may name rows and columns that hold only
// zeros — a zero level adds an exact zero — but must not miss a non-zero
// one.
//
//sieve:noalloc inverse transform of the encode and decode hot paths
func (qz *Quantizer) InverseMasked(lev *Block, rows, cols uint, dst *Block) {
	inverseMasked(lev, &qz.q, rows&(1<<BlockSize-1), cols&(1<<BlockSize-1), dst)
}

// inverseMasked is inverse once the non-empty rows and columns are known. A
// DC-only block takes inverseMaskedGo's constant fill; on an AVX2 CPU every
// other block, dense ones included, takes inverseMaskedAVX2
// (inverse_amd64.s), the sparse path four accumulators per register.
//
//sieve:noalloc inverse transform of the encode and decode hot paths
func inverseMasked(src *Block, q *[BlockSize * BlockSize]int32, rows, cols uint, dst *Block) {
	if cpu.AVX2 && rows|cols > 1 {
		inverseMaskedAVX2(src, q, rows, cols, dst)
		return
	}
	inverseMaskedGo(src, q, rows, cols, dst)
}

// inverseMaskedGo is the Go kernel of inverseMasked, and the oracle its
// assembly is tested against. A DC-only block is a constant: cosTable[0]
// holds c(0)/2 in every entry (cos 0 is exactly 1), so every sample is the
// sparse path's two products f·c₀₀·c₀₀, each added to a zero. A block with
// no empty row or column (one in nine of an I-frame's, and every block of
// raw coefficients) has nothing to skip and takes inverseDense.
//
//sieve:noalloc inverse transform of the decode hot path
func inverseMaskedGo(src *Block, q *[BlockSize * BlockSize]int32, rows, cols uint, dst *Block) {
	const all = 1<<BlockSize - 1
	switch {
	case rows == all && cols == all:
		inverseDense(src, q, dst)
		return
	case rows|cols <= 1:
		f := float64(src[0] * q[0])
		c := cosTable[0][0]
		d := roundHalfEven(float64(float64(f*c) * c))
		for i := range dst {
			dst[i] = d
		}
		return
	}

	// The passes walk lists of the set rows and columns: a mask would be
	// rescanned for every output row.
	var rowList, colList [BlockSize]int
	rl, cl := setBits(rows, &rowList), setBits(cols, &colList)
	var tmp [BlockSize * BlockSize]float64
	// Columns: tmp[y][u] = Σv coef[v][u]·cos[v][y], v ascending.
	for _, u := range cl {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for _, v := range rl {
			i := (v*BlockSize + u) & (BlockSize*BlockSize - 1)
			f := float64(src[i] * q[i])
			c := &cosTable[v&(BlockSize-1)]
			s0 += float64(f * c[0])
			s1 += float64(f * c[1])
			s2 += float64(f * c[2])
			s3 += float64(f * c[3])
			s4 += float64(f * c[4])
			s5 += float64(f * c[5])
			s6 += float64(f * c[6])
			s7 += float64(f * c[7])
		}
		t := tmp[u&(BlockSize-1):]
		t[0], t[BlockSize], t[2*BlockSize], t[3*BlockSize] = s0, s1, s2, s3
		t[4*BlockSize], t[5*BlockSize], t[6*BlockSize], t[7*BlockSize] = s4, s5, s6, s7
	}
	// Rows: dst[y][x] = Σu tmp[y][u]·cos[u][x], u ascending.
	for y := 0; y < BlockSize; y++ {
		t := tmp[y*BlockSize : y*BlockSize+BlockSize : y*BlockSize+BlockSize]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for _, u := range cl {
			f := t[u&(BlockSize-1)]
			c := &cosTable[u&(BlockSize-1)]
			s0 += float64(f * c[0])
			s1 += float64(f * c[1])
			s2 += float64(f * c[2])
			s3 += float64(f * c[3])
			s4 += float64(f * c[4])
			s5 += float64(f * c[5])
			s6 += float64(f * c[6])
			s7 += float64(f * c[7])
		}
		d := dst[y*BlockSize : y*BlockSize+BlockSize : y*BlockSize+BlockSize]
		d[0], d[1] = roundHalfEven(s0), roundHalfEven(s1)
		d[2], d[3] = roundHalfEven(s2), roundHalfEven(s3)
		d[4], d[5] = roundHalfEven(s4), roundHalfEven(s5)
		d[6], d[7] = roundHalfEven(s6), roundHalfEven(s7)
	}
}

// setBits writes the positions of the set bits of m < 2⁸ to l, ascending,
// and returns them as a slice of l.
func setBits(m uint, l *[BlockSize]int) []int {
	n := 0
	for ; m != 0; m &= m - 1 {
		l[n&(BlockSize-1)] = bits.TrailingZeros(m)
		n++
	}
	return l[:n&(2*BlockSize-1)]
}

// roundHalfEven is int32(math.RoundToEven(x)) for |x| < 2⁵¹. Adding 1.5·2⁵²
// puts x in [2⁵², 2⁵³), where the doubles are exactly the integers, so the
// addition itself rounds x to the nearest integer, ties to even (1.5·2⁵² is
// even, so an even sum means an even integer); subtracting it back is exact.
// Every sum
// the inverse rounds is below 2³⁶ in magnitude (at most 64 products of an
// int32 with factors of magnitude ≤ ½). What this saves is not the rounding
// but its surroundings: on amd64 each math.RoundToEven is a branch on SSE4.1
// whose fallback call makes the compiler keep every live accumulator on the
// stack.
func roundHalfEven(x float64) int32 {
	const shift = 3 << 51
	return int32(float64(x+shift) - shift)
}

// inverseDense is inverse without the bookkeeping, in Forward's form: eight
// independent dot products per pass keep more additions in flight than eight
// accumulators fed term by term, which is what pays once no term can be
// skipped.
func inverseDense(src *Block, q *[BlockSize * BlockSize]int32, dst *Block) {
	var tmp [BlockSize * BlockSize]float64
	for u := 0; u < BlockSize; u++ {
		x0, x1 := float64(src[u]*q[u]), float64(src[BlockSize+u]*q[BlockSize+u])
		x2, x3 := float64(src[2*BlockSize+u]*q[2*BlockSize+u]), float64(src[3*BlockSize+u]*q[3*BlockSize+u])
		x4, x5 := float64(src[4*BlockSize+u]*q[4*BlockSize+u]), float64(src[5*BlockSize+u]*q[5*BlockSize+u])
		x6, x7 := float64(src[6*BlockSize+u]*q[6*BlockSize+u]), float64(src[7*BlockSize+u]*q[7*BlockSize+u])
		for y := 0; y < BlockSize; y++ {
			tmp[y*BlockSize+u] = dot8(x0, x1, x2, x3, x4, x5, x6, x7, &cosByX[y])
		}
	}
	for y := 0; y < BlockSize; y++ {
		t := tmp[y*BlockSize : y*BlockSize+BlockSize : y*BlockSize+BlockSize]
		x0, x1, x2, x3, x4, x5, x6, x7 := t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7]
		d := dst[y*BlockSize : y*BlockSize+BlockSize : y*BlockSize+BlockSize]
		for x := range d {
			d[x] = roundHalfEven(dot8(x0, x1, x2, x3, x4, x5, x6, x7, &cosByX[x]))
		}
	}
}

// baseLumaQuant is the JPEG Annex K luminance quantisation matrix; a proven
// perceptual weighting that our codec reuses for both luma and chroma.
var baseLumaQuant = [BlockSize * BlockSize]int32{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// Quantizer scales the base matrix by a quality factor and performs
// coefficient quantisation and reconstruction.
type Quantizer struct {
	q    [BlockSize * BlockSize]int32
	qual int
	// recip[i] = ⌈2³¹/q[i]⌉, which fits in 32 bits for every q, 1
	// included, as quantizeAVX2's VPMULUDQ needs. For 0 <= n < 2¹⁶ and
	// 1 <= q <= 255, n/q == n*recip>>31 exactly: the error
	// n·(recip·q−2³¹)/(q·2³¹) stays below the 1/q gap to the next integer
	// because recip·q−2³¹ < q <= 2⁸, so n·(recip·q−2³¹) < 2²⁴ < 2³¹.
	// TestQuantizeMatchesReferenceExhaustive walks the whole range both
	// kernels use it on.
	recip [BlockSize * BlockSize]uint32
}

// quantExact bounds the coefficients Quantize divides by reciprocal; the
// DCT of 8-bit residuals stays below 2¹², anything at or above 2¹⁵ takes
// the plain division (on an AVX2 CPU: the whole block takes quantizeGo).
const quantExact = 1 << 15

// NewQuantizer builds a quantizer for quality in [1,100] using the JPEG
// quality-to-scale mapping (50 = base matrix, higher = finer).
func NewQuantizer(quality int) *Quantizer {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	var scale int32
	if quality < 50 {
		scale = int32(5000 / quality)
	} else {
		scale = int32(200 - quality*2)
	}
	qz := &Quantizer{qual: quality}
	for i, b := range baseLumaQuant {
		v := (b*scale + 50) / 100
		if v < 1 {
			v = 1
		}
		if v > 255 {
			v = 255
		}
		qz.setStep(i, v)
	}
	return qz
}

// setStep sets entry i of the matrix to q in [1,255], with its reciprocal.
func (qz *Quantizer) setStep(i int, q int32) {
	qz.q[i] = q
	qz.recip[i] = uint32((1<<31 + uint64(q) - 1) / uint64(q))
}

// Quality returns the quality factor the quantizer was built with.
func (qz *Quantizer) Quality() int { return qz.qual }

// Quantize divides coefficients by the scaled matrix, rounding half away
// from zero, and reports whether any level is non-zero (an all-zero block
// is coded as one bit). On an AVX2 CPU it runs quantizeAVX2
// (quantize_amd64.s), and quantizeGo for a block that holds a coefficient of
// 2¹⁵ or more in magnitude.
func (qz *Quantizer) Quantize(src, dst *Block) bool {
	if cpu.AVX2 {
		if nz, ok := quantizeAVX2(src, dst, &qz.q, &qz.recip); ok {
			return nz
		}
	}
	return qz.quantizeGo(src, dst)
}

// quantizeGo is the Go kernel of Quantize, and the oracle its assembly is
// tested against.
func (qz *Quantizer) quantizeGo(src, dst *Block) bool {
	var any int32
	for i := range src {
		c := src[i]
		q := qz.q[i]
		sign := c >> 31 // 0 or -1
		mag := (c ^ sign) - sign
		var l int32
		if uint32(mag) < quantExact {
			l = int32(uint64(mag+q>>1) * uint64(qz.recip[i]) >> 31)
		} else if c >= 0 {
			l = (c + q/2) / q
		} else {
			l = (-c + q/2) / q
		}
		dst[i] = (l ^ sign) - sign
		any |= l
	}
	return any != 0
}

// ScanIndex returns the raster index of scan position i.
func ScanIndex(i int) int { return zigzag[i] }
