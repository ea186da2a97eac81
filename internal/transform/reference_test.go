package transform

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sieve/internal/cpu"
)

// The kernels this package shipped before the bit-exact fast paths, kept
// here as the oracle the fast paths are tested against: same tables, same
// loops, same summation order. The only edit is the explicit float64()
// around each product, which pins the unfused evaluation on every platform:
// without it the compiler fuses s += a*b into an FMA on arm64 (the old
// kernels compiled to four there), and the golden bitstreams were recorded
// on amd64, where go1.24 fuses nothing. On amd64 the edit changes no
// instruction.

func refForward(src, dst *Block) {
	var tmp [BlockSize * BlockSize]float64
	// Rows.
	for y := 0; y < BlockSize; y++ {
		for u := 0; u < BlockSize; u++ {
			var s float64
			for x := 0; x < BlockSize; x++ {
				s += float64(float64(src[y*BlockSize+x]) * cosTable[u][x])
			}
			tmp[y*BlockSize+u] = s
		}
	}
	// Columns.
	for u := 0; u < BlockSize; u++ {
		for v := 0; v < BlockSize; v++ {
			var s float64
			for y := 0; y < BlockSize; y++ {
				s += float64(tmp[y*BlockSize+u] * cosTable[v][y])
			}
			dst[v*BlockSize+u] = int32(math.RoundToEven(s))
		}
	}
}

func refInverse(src, dst *Block) {
	var tmp [BlockSize * BlockSize]float64
	// Columns.
	for u := 0; u < BlockSize; u++ {
		for y := 0; y < BlockSize; y++ {
			var s float64
			for v := 0; v < BlockSize; v++ {
				s += float64(float64(src[v*BlockSize+u]) * cosTable[v][y])
			}
			tmp[y*BlockSize+u] = s
		}
	}
	// Rows.
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			var s float64
			for u := 0; u < BlockSize; u++ {
				s += float64(tmp[y*BlockSize+u] * cosTable[u][x])
			}
			dst[y*BlockSize+x] = int32(math.RoundToEven(s))
		}
	}
}

func refQuantize(qz *Quantizer, src, dst *Block) {
	for i := range src {
		c := src[i]
		q := qz.q[i]
		if c >= 0 {
			dst[i] = (c + q/2) / q
		} else {
			dst[i] = -((-c + q/2) / q)
		}
	}
}

func refDequantize(qz *Quantizer, src, dst *Block) {
	for i := range src {
		dst[i] = src[i] * qz.q[i]
	}
}

// noteKernels says, in the test's log, when the AVX2 kernels cannot run
// (another GOARCH, or an amd64 CPU without AVX2): the oracle tests then skip
// the assembly and compare only the Go kernels with the textbook loops.
func noteKernels(t testing.TB) {
	t.Helper()
	if !cpu.AVX2 {
		t.Log("no AVX2 kernels here (not amd64, or the CPU lacks AVX2): the assembly is skipped, only the Go kernels are checked")
	}
}

// checkForward asserts that Forward, which is forwardAVX2 on an AVX2 CPU,
// and the Go kernel forwardGo both equal the textbook oracle on blk.
func checkForward(t testing.TB, blk *Block) {
	t.Helper()
	var got, goK, want Block
	Forward(blk, &got)
	forwardGo(blk, &goK)
	refForward(blk, &want)
	if got != goK {
		t.Fatalf("Forward differs from forwardGo\nin   %v\ngot  %v\ngo   %v", *blk, got, goK)
	}
	if got != want {
		t.Fatalf("Forward differs from the reference\nin   %v\ngot  %v\nwant %v", *blk, got, want)
	}
}

// TestForwardMatchesReferenceFullRange feeds Forward samples of every int32
// magnitude, which FuzzTransformMatchesReference (int16 samples) cannot
// reach: products and sums far from the residual range, and coefficients
// beyond int32, where the result is whatever the conversion to int32 makes
// of them and the assembly's VCVTPD2DQ must agree with Go's.
func TestForwardMatchesReferenceFullRange(t *testing.T) {
	noteKernels(t)
	n := 100000
	if testing.Short() {
		n = 10000
	}
	rng := rand.New(rand.NewSource(30))
	var blk Block
	for _, v := range []int32{math.MaxInt32, math.MinInt32, math.MinInt32 + 1, 1 << 30, -1 << 30} {
		for i := range blk {
			blk[i] = v
		}
		checkForward(t, &blk)
		for i := range blk {
			if (i/BlockSize+i%BlockSize)%2 == 1 { // a checkerboard
				blk[i] = -v
			}
		}
		checkForward(t, &blk)
	}
	for trial := 0; trial < n; trial++ {
		shift := rng.Intn(32)
		for i := range blk {
			blk[i] = int32(rng.Uint32()) >> shift
		}
		checkForward(t, &blk)
	}
}

// checkTransforms asserts that Forward and Inverse agree with the oracle on
// blk taken as samples and as coefficients, and that the dequantising
// inverse agrees with dequantise-then-inverse on blk taken as levels.
func checkTransforms(t testing.TB, blk *Block, qz *Quantizer) {
	t.Helper()
	var got, want, dq Block
	checkForward(t, blk)
	Inverse(blk, &got)
	refInverse(blk, &want)
	if got != want {
		t.Fatalf("Inverse differs from the reference\nin   %v\ngot  %v\nwant %v", *blk, got, want)
	}
	rows, cols := masksOf(blk)
	checkInverseKernels(t, "unit", blk, &unitQuant, rows, cols, &want)
	qz.Inverse(blk, &got)
	refDequantize(qz, blk, &dq)
	refInverse(&dq, &want)
	if got != want {
		t.Fatalf("Quantizer.Inverse (q%d) differs from the reference\nin   %v\ngot  %v\nwant %v",
			qz.Quality(), *blk, got, want)
	}
	qz.InverseMasked(blk, rows, cols, &got)
	if got != want {
		t.Fatalf("Quantizer.InverseMasked (q%d) differs from the reference\nin   %v\ngot  %v\nwant %v",
			qz.Quality(), *blk, got, want)
	}
	checkInverseKernels(t, fmt.Sprintf("q%d", qz.Quality()), blk, &qz.q, rows, cols, &want)
}

// checkInverseKernels asserts that the Go kernel inverseMaskedGo and, on an
// AVX2 CPU, the assembly inverseMaskedAVX2 — called directly, so also on the
// DC-only blocks inverseMasked keeps in Go — both give want, the textbook
// inverse of lev dequantised by q, under the masks rows and cols.
func checkInverseKernels(t testing.TB, name string, lev *Block, q *[BlockSize * BlockSize]int32, rows, cols uint, want *Block) {
	t.Helper()
	var got Block
	inverseMaskedGo(lev, q, rows, cols, &got)
	if got != *want {
		t.Fatalf("inverseMaskedGo (%s, rows %08b, cols %08b) differs from the reference\nin   %v\ngot  %v\nwant %v",
			name, rows, cols, *lev, got, *want)
	}
	if !cpu.AVX2 {
		return
	}
	inverseMaskedAVX2(lev, q, rows, cols, &got)
	if got != *want {
		t.Fatalf("inverseMaskedAVX2 (%s, rows %08b, cols %08b) differs from the reference\nin   %v\ngot  %v\nwant %v",
			name, rows, cols, *lev, got, *want)
	}
}

func TestTransformMatchesReferenceRandom(t *testing.T) {
	noteKernels(t)
	n := 100000
	if testing.Short() {
		n = 10000
	}
	rng := rand.New(rand.NewSource(18))
	quants := []*Quantizer{NewQuantizer(85), NewQuantizer(50), NewQuantizer(10), NewQuantizer(100)}
	var blk, coef, lev Block
	for trial := 0; trial < n; trial++ {
		for i := range blk {
			blk[i] = int32(rng.Intn(511) - 255)
		}
		qz := quants[trial%len(quants)]
		checkTransforms(t, &blk, qz)
		// The encoder's own path: the levels a real residual quantises to,
		// sparse in the way the inverse exploits.
		amp := 1 + rng.Intn(40)
		for i := range blk {
			blk[i] = int32(rng.Intn(2*amp+1) - amp)
		}
		Forward(&blk, &coef)
		qz.Quantize(&coef, &lev)
		checkTransforms(t, &lev, qz)
	}
}

func TestTransformMatchesReferenceSparse(t *testing.T) {
	noteKernels(t)
	vals := []int32{1, -1, 2040, -2040, 32767, -32767}
	qz := NewQuantizer(85)
	var blk Block
	for i := range blk {
		for _, a := range vals {
			blk = Block{}
			blk[i] = a
			checkTransforms(t, &blk, qz)
			if testing.Short() && i%9 != 0 {
				continue
			}
			for j := i + 1; j < len(blk); j++ {
				for _, b := range vals {
					blk[j] = b
					checkTransforms(t, &blk, qz)
				}
				blk[j] = 0
			}
		}
	}
}

// TestTransformMatchesReferenceTies aims at the inputs where only the float
// rounding noise decides the result: a block whose sum is 4 mod 8 has a DC
// coefficient of exactly k+½ in real arithmetic, and a DC level of 4 mod 8
// reconstructs to k+½ on every sample, so a single reordered addition or
// fused product flips the rounded integer. The third case does the same to
// the inverse's dense path: coefficients at (0,0), (0,4), (4,0), (4,4)
// contribute exact eighths to every sample, and an antisymmetric remainder
// (a[u][v] = −a[v][u]) fills every row and column yet cancels exactly on the
// diagonal samples, which therefore sit at k+½ plus float noise.
func TestTransformMatchesReferenceTies(t *testing.T) {
	noteKernels(t)
	rng := rand.New(rand.NewSource(19))
	qz := NewQuantizer(85)
	var blk Block
	for trial := 0; trial < 20000; trial++ {
		sum := int32(0)
		for i := range blk {
			blk[i] = int32(rng.Intn(511) - 255)
			sum += blk[i]
		}
		blk[rng.Intn(len(blk))] += 4 - (sum%8+8)%8
		checkTransforms(t, &blk, qz)

		// DC at a tie, alone and under a few small AC coefficients.
		blk = Block{}
		blk[0] = int32(rng.Intn(4081)-2040)*8 + 4
		checkTransforms(t, &blk, unitQuantizer)
		for k := rng.Intn(4); k > 0; k-- {
			blk[1+rng.Intn(20)] = int32(rng.Intn(7) - 3)
		}
		checkTransforms(t, &blk, unitQuantizer)

		blk = Block{}
		for u := 0; u < BlockSize; u++ {
			for v := u + 1; v < BlockSize; v++ {
				a := int32(1 + rng.Intn(60))
				blk[v*BlockSize+u], blk[u*BlockSize+v] = a, -a
			}
		}
		blk[0] = int32(rng.Intn(255)-127)*8 + 4
		blk[4*BlockSize+4] = int32(rng.Intn(31)-15) * 8
		blk[4] += int32(rng.Intn(31)-15) * 8
		blk[4*BlockSize] += int32(rng.Intn(31)-15) * 8
		checkTransforms(t, &blk, unitQuantizer)
	}
}

// unitQuantizer has every step 1, so Quantizer.Inverse sees the levels as
// the coefficients themselves.
var unitQuantizer = func() *Quantizer {
	qz := &Quantizer{qual: 100}
	for i := range qz.q {
		qz.setStep(i, 1)
	}
	return qz
}()

// checkQuantize compares one block with the reference, including the
// reported any-non-zero flag, through Quantize, the Go kernel quantizeGo
// and, on an AVX2 CPU, the assembly quantizeAVX2, which must refuse exactly
// the blocks that hold a coefficient of 2¹⁵ or more in magnitude.
func checkQuantize(t *testing.T, qz *Quantizer, src *Block) {
	t.Helper()
	var want Block
	refQuantize(qz, src, &want)
	wantNZ := want != Block{}
	check := func(name string, got *Block, nz bool) {
		t.Helper()
		if *got != want {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s(%d) with step %d = %d, reference %d", name, src[i], qz.q[i], got[i], want[i])
				}
			}
		}
		if nz != wantNZ {
			t.Fatalf("%s reported non-zero=%v for levels %v", name, nz, want)
		}
	}
	var got Block
	nz := qz.Quantize(src, &got)
	check("Quantize", &got, nz)
	got = Block{}
	nz = qz.quantizeGo(src, &got)
	check("quantizeGo", &got, nz)
	if !cpu.AVX2 {
		return
	}
	exact := true
	for _, c := range src {
		if c >= quantExact || c <= -quantExact {
			exact = false
		}
	}
	got = Block{}
	nz, ok := quantizeAVX2(src, &got, &qz.q, &qz.recip)
	if ok != exact {
		t.Fatalf("quantizeAVX2 reported ok=%v for %v, want %v", ok, *src, exact)
	}
	if ok {
		check("quantizeAVX2", &got, nz)
	}
}

// TestQuantizeMatchesReferenceExhaustive proves the reciprocal divisions on
// the whole range they are used on — every step 1..255 against every
// coefficient of 16 bits, through the Go kernel and the assembly — and the
// fallbacks beyond it: the Go kernel's plain division, and the assembly's
// refusal of any block that holds one such coefficient, wherever it sits.
func TestQuantizeMatchesReferenceExhaustive(t *testing.T) {
	noteKernels(t)
	beyond := []int32{
		quantExact, -quantExact, quantExact + 1, -quantExact - 1, 65535, -65535, 1 << 20, -(1 << 20),
		1<<24 - 1, 1 << 24, -(1 << 24), math.MaxInt32, math.MaxInt32 - 127, math.MinInt32, math.MinInt32 + 1,
	}
	qz := &Quantizer{}
	var src Block
	for q := int32(1); q <= 255; q++ {
		for i := range qz.q {
			qz.setStep(i, q)
		}
		// -2¹⁵+1 .. 2¹⁵-1, the assembly's whole range; the last block
		// repeats 2¹⁵-1.
		for c := -int32(quantExact) + 1; c < quantExact; c += int32(len(src)) {
			for i := range src {
				src[i] = min(c+int32(i), quantExact-1)
			}
			checkQuantize(t, qz, &src)
		}
		src = Block{}
		copy(src[:], beyond)
		checkQuantize(t, qz, &src)
		// Each out-of-range coefficient alone, at a position that moves
		// through all eight lanes and all eight registers.
		for k, c := range beyond {
			src = Block{}
			src[(int(q)*7+k*5)%len(src)] = c
			checkQuantize(t, qz, &src)
		}
	}
	// All-zero and single-level blocks through a real matrix.
	qz = NewQuantizer(85)
	src = Block{}
	checkQuantize(t, qz, &src)
	for i := range src {
		src = Block{}
		src[i] = qz.q[i]/2 + 1 // smallest magnitude that survives
		checkQuantize(t, qz, &src)
		src[i] = -src[i]
		checkQuantize(t, qz, &src)
		src[i] = qz.q[i] / 2 // rounds to 1 on an even step, to 0 on an odd one
		checkQuantize(t, qz, &src)
	}
}

// FuzzTransformMatchesReference reads 64 little-endian int16 values and
// requires Forward, Inverse, the dequantising inverse and Quantize to equal
// the oracle on them, through the assembly and the Go kernels alike.
func FuzzTransformMatchesReference(f *testing.F) {
	f.Add(make([]byte, 128))
	seed := make([]byte, 128)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	dcTie := make([]byte, 128)
	dcTie[0] = 4
	f.Add(dcTie)
	qz := NewQuantizer(85)
	noteKernels(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var blk Block
		for i := range blk {
			if 2*i+1 < len(data) {
				blk[i] = int32(int16(uint16(data[2*i]) | uint16(data[2*i+1])<<8))
			}
		}
		checkTransforms(t, &blk, qz)
		checkQuantize(t, qz, &blk)
	})
}

// checkMasked compares InverseMasked under the masks rows and cols, and the
// Go and assembly kernels under them, with the oracle: dequantise, then the
// textbook inverse.
func checkMasked(t *testing.T, qz *Quantizer, lev *Block, rows, cols uint) {
	t.Helper()
	var got, dq, want Block
	qz.InverseMasked(lev, rows, cols, &got)
	refDequantize(qz, lev, &dq)
	refInverse(&dq, &want)
	if got != want {
		t.Fatalf("InverseMasked (q%d, rows %08b, cols %08b) differs from the reference\nin   %v\ngot  %v\nwant %v",
			qz.Quality(), rows, cols, *lev, got, want)
	}
	checkInverseKernels(t, fmt.Sprintf("q%d", qz.Quality()), lev, &qz.q, rows, cols, &want)
}

// masksOf returns the rows and columns of lev that hold a non-zero level.
func masksOf(lev *Block) (rows, cols uint) {
	for i, l := range lev {
		if l != 0 {
			rows |= 1 << (i / BlockSize)
			cols |= 1 << (i % BlockSize)
		}
	}
	return rows, cols
}

// TestInverseMaskedMatchesReference checks the masked inverse on the levels
// real residuals quantise to, with the exact masks and with masks that also
// name empty rows and columns (which add exact zeros), and on single levels
// at every position.
func TestInverseMaskedMatchesReference(t *testing.T) {
	noteKernels(t)
	n := 20000
	if testing.Short() {
		n = 2000
	}
	rng := rand.New(rand.NewSource(27))
	quants := []*Quantizer{NewQuantizer(85), NewQuantizer(50), NewQuantizer(10), NewQuantizer(100)}
	var blk, coef, lev Block
	for trial := 0; trial < n; trial++ {
		amp := 1 + rng.Intn(40)
		for i := range blk {
			blk[i] = int32(rng.Intn(2*amp+1) - amp)
		}
		qz := quants[trial%len(quants)]
		Forward(&blk, &coef)
		qz.Quantize(&coef, &lev)
		rows, cols := masksOf(&lev)
		checkMasked(t, qz, &lev, rows, cols)
		checkMasked(t, qz, &lev, rows|uint(rng.Intn(256)), cols|uint(rng.Intn(256)))
	}
	for i := range lev {
		for _, a := range []int32{1, -1, 37, -2040, 32767, -32768} {
			lev = Block{}
			lev[i] = a
			rows, cols := masksOf(&lev)
			checkMasked(t, quants[0], &lev, rows, cols)
			checkMasked(t, unitQuantizer, &lev, rows, cols)
		}
	}
}

// TestInverseMaskedMatchesReferenceFullRange feeds the masked inverse levels
// of every int32 magnitude, which no quantised residual reaches: level ×
// step products that wrap in int32 (as Go's multiply and the assembly's
// VPMULLD both do), and sums beyond int32, where both roundings give
// MinInt32. Blocks are dense, sparse and single-row or single-column, with
// exact masks and with masks that also name empty rows and columns.
func TestInverseMaskedMatchesReferenceFullRange(t *testing.T) {
	noteKernels(t)
	n := 100000
	if testing.Short() {
		n = 10000
	}
	rng := rand.New(rand.NewSource(31))
	quants := []*Quantizer{unitQuantizer, NewQuantizer(85), NewQuantizer(10), NewQuantizer(1)}
	var lev Block
	for _, v := range []int32{math.MaxInt32, math.MinInt32, math.MinInt32 + 1, 1 << 30, -1 << 30} {
		for i := range lev {
			lev[i] = v
		}
		rows, cols := masksOf(&lev)
		checkMasked(t, unitQuantizer, &lev, rows, cols)
		for i := range lev {
			if (i/BlockSize+i%BlockSize)%2 == 1 { // a checkerboard
				lev[i] = -v
			}
		}
		checkMasked(t, unitQuantizer, &lev, rows, cols)
	}
	for trial := 0; trial < n; trial++ {
		shift := rng.Intn(32)
		density := rng.Intn(4) // 0: dense, else about one level in 2^density
		rowOnly, colOnly := rng.Intn(8) == 0, rng.Intn(8) == 0
		r0, c0 := rng.Intn(BlockSize), rng.Intn(BlockSize)
		for i := range lev {
			lev[i] = 0
			if rng.Intn(1<<density) != 0 || rowOnly && i/BlockSize != r0 || colOnly && i%BlockSize != c0 {
				continue
			}
			lev[i] = int32(rng.Uint32()) >> shift
		}
		qz := quants[trial%len(quants)]
		rows, cols := masksOf(&lev)
		checkMasked(t, qz, &lev, rows, cols)
		if trial%4 == 0 {
			checkMasked(t, qz, &lev, rows|uint(rng.Intn(256)), cols|uint(rng.Intn(256)))
		}
	}
}

// TestInverseDCOnlyExhaustive proves the DC-only constant fill: every entry
// of cosTable[0] is the same number, and for every quality and every DC
// level of 16 bits the fill equals the textbook inverse of the block. A
// DC-only block meets only the matrix's DC step, so a quality whose step an
// earlier one had is the same computation and is not run twice.
func TestInverseDCOnlyExhaustive(t *testing.T) {
	noteKernels(t)
	for x, c := range cosTable[0] {
		if c != cosTable[0][0] {
			t.Fatalf("cosTable[0][%d] = %v, cosTable[0][0] = %v", x, c, cosTable[0][0])
		}
	}
	step := int32(1)
	if testing.Short() {
		step = 61
	}
	seen := map[int32]bool{}
	var lev Block
	for q := 1; q <= 100; q++ {
		qz := NewQuantizer(q)
		if seen[qz.q[0]] {
			continue
		}
		seen[qz.q[0]] = true
		for l := int32(-1 << 15); l <= 1<<15; l += step {
			lev[0] = l
			checkMasked(t, qz, &lev, 1, 1)
		}
	}
}

// TestMirrorSymmetryIsNotExact records why the inverse does not use the
// DCT's mirror symmetry cos[u][7−x] = ±cos[u][x] to share products between
// x and 7−x: in cosTable the two sides are mostly not each other's exact
// negation (they differ in the last bits), so a shared product would change
// the result.
func TestMirrorSymmetryIsNotExact(t *testing.T) {
	differ := 0
	for u := range cosTable {
		for x := 0; x < BlockSize/2; x++ {
			m := cosTable[u][BlockSize-1-x]
			if u%2 == 1 {
				m = -m
			}
			if m != cosTable[u][x] {
				differ++
			}
		}
	}
	if differ != 27 {
		t.Fatalf("%d of 32 mirrored cosTable entries differ from ±their mirror, want 27", differ)
	}
}

// TestRoundHalfEven checks the rounding helper against math.RoundToEven on
// exact ties, their float neighbours, signed zeros and random values across
// the int32 range the inverse produces.
func TestRoundHalfEven(t *testing.T) {
	check := func(x float64) {
		if got, want := roundHalfEven(x), int32(math.RoundToEven(x)); got != want {
			t.Fatalf("roundHalfEven(%v) = %d, math.RoundToEven gives %d", x, got, want)
		}
	}
	rng := rand.New(rand.NewSource(36))
	for _, x := range []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 1<<31 - 1, -1 << 31} {
		check(x)
	}
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for trial := 0; trial < n; trial++ {
		k := float64(rng.Int63n(1<<32) - 1<<31)
		for _, x := range []float64{k + 0.5, k - 0.5} {
			check(x)
			check(math.Nextafter(x, math.Inf(1)))
			check(math.Nextafter(x, math.Inf(-1)))
		}
		check(k + rng.Float64() - 0.5)
		check(math.Ldexp(rng.Float64()-0.5, rng.Intn(32)))
	}
}
