package transform

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDCTRoundTripExactOnSmoothBlocks(t *testing.T) {
	var src, coef, rec Block
	for i := range src {
		src[i] = 100 // flat block
	}
	Forward(&src, &coef)
	Inverse(&coef, &rec)
	for i := range src {
		if d := src[i] - rec[i]; d < -1 || d > 1 {
			t.Fatalf("flat block coef %d reconstructed %d, want ~100", i, rec[i])
		}
	}
	// DC coefficient of a flat block of 100s should be 8*100 = 800
	// (with the 1/4 * c(u)c(v) normalisation folded in).
	if coef[0] != 800 {
		t.Fatalf("DC of flat 100 block = %d, want 800", coef[0])
	}
	for i := 1; i < len(coef); i++ {
		if coef[i] != 0 {
			t.Fatalf("AC coefficient %d of flat block = %d, want 0", i, coef[i])
		}
	}
}

func TestDCTRoundTripBoundedError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		var src, coef, rec Block
		for i := range src {
			src[i] = int32(rng.Intn(511) - 255) // residuals span [-255,255]
		}
		Forward(&src, &coef)
		Inverse(&coef, &rec)
		for i := range src {
			d := src[i] - rec[i]
			if d < -2 || d > 2 {
				t.Fatalf("trial %d: sample %d error %d exceeds ±2", trial, i, d)
			}
		}
	}
}

// Inverse reconstructs spatial samples from quantised levels: it multiplies
// them back to coefficient scale and applies the inverse DCT after scanning
// for the masks. The codec calls InverseMasked with the masks it records;
// this entry point remains for the tests.
func (qz *Quantizer) Inverse(lev, dst *Block) { inverse(lev, &qz.q, dst) }

// ZigZag reorders a raster block into scan order. The codec writes and
// parses levels through ScanIndex; this pair remains for the scan's tests.
func ZigZag(src, dst *Block) {
	for i, r := range zigzag {
		dst[i] = src[r]
	}
}

// UnZigZag restores raster order from scan order.
func UnZigZag(src, dst *Block) {
	for i, r := range zigzag {
		dst[r] = src[i]
	}
}

func TestZigZagPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var src, zz, back Block
		for i := range src {
			src[i] = int32(rng.Intn(2000) - 1000)
		}
		ZigZag(&src, &zz)
		UnZigZag(&zz, &back)
		return src == back
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZigZagOrderStartsCorrectly(t *testing.T) {
	// Scan must start DC, then (0,1), (1,0), (2,0), (1,1), (0,2)...
	want := []int{0, 1, 8, 16, 9, 2, 3, 10, 17, 24}
	for i, w := range want {
		if ScanIndex(i) != w {
			t.Fatalf("scan[%d] = %d, want %d", i, ScanIndex(i), w)
		}
	}
	// Must be a permutation: all 64 indices visited once.
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		idx := ScanIndex(i)
		if seen[idx] {
			t.Fatalf("scan visits %d twice", idx)
		}
		seen[idx] = true
	}
}

func TestQuantizerQualityMonotonic(t *testing.T) {
	// Higher quality → smaller quantisation steps → less coefficient error.
	rng := rand.New(rand.NewSource(2))
	var src, coef Block
	for i := range src {
		src[i] = int32(rng.Intn(400) - 200)
	}
	Forward(&src, &coef)
	errAt := func(q int) int64 {
		qz := NewQuantizer(q)
		var lev, rec Block
		qz.Quantize(&coef, &lev)
		refDequantize(qz, &lev, &rec)
		var e int64
		for i := range coef {
			d := int64(coef[i] - rec[i])
			e += d * d
		}
		return e
	}
	if !(errAt(90) <= errAt(50) && errAt(50) <= errAt(10)) {
		t.Fatalf("quantisation error not monotone: q90=%d q50=%d q10=%d",
			errAt(90), errAt(50), errAt(10))
	}
}

func TestQuantizeDequantizeSigns(t *testing.T) {
	qz := NewQuantizer(50)
	var src, lev Block
	src[0] = -1000
	src[1] = 1000
	qz.Quantize(&src, &lev)
	if lev[0] >= 0 || lev[1] <= 0 {
		t.Fatalf("sign lost in quantisation: %d %d", lev[0], lev[1])
	}
	// Quantise(x) == -Quantise(-x): symmetric rounding.
	var neg, nlev Block
	for i := range src {
		neg[i] = -src[i]
	}
	qz.Quantize(&neg, &nlev)
	for i := range lev {
		if lev[i] != -nlev[i] {
			t.Fatalf("asymmetric rounding at %d: %d vs %d", i, lev[i], nlev[i])
		}
	}
}

func TestQuantizerClampsQuality(t *testing.T) {
	if NewQuantizer(-5).Quality() != 1 {
		t.Fatal("quality not clamped low")
	}
	if NewQuantizer(500).Quality() != 100 {
		t.Fatal("quality not clamped high")
	}
}

func TestEndToEndBlockPipelinePSNR(t *testing.T) {
	// Full pipeline: DCT → quantise → dequantise → IDCT on natural-ish data.
	rng := rand.New(rand.NewSource(3))
	var worst float64
	for trial := 0; trial < 50; trial++ {
		var src, coef, lev, out Block
		base := int32(rng.Intn(200))
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				// Smooth gradient + small noise, like real image content.
				src[y*8+x] = base + int32(3*x+2*y) + int32(rng.Intn(7)) - 3 - 128
			}
		}
		qz := NewQuantizer(85)
		Forward(&src, &coef)
		qz.Quantize(&coef, &lev)
		qz.Inverse(&lev, &out)
		var sse float64
		for i := range src {
			d := float64(src[i] - out[i])
			sse += d * d
		}
		if sse > worst {
			worst = sse
		}
	}
	// 64 samples; mean squared error should stay small at q85.
	if worst/64 > 40 {
		t.Fatalf("block MSE %f too high at quality 85", worst/64)
	}
}

// BenchmarkForwardDCT times one 8×8 forward DCT: /kernel is what Forward
// runs (the AVX2 assembly on an AVX2 CPU), /go the Go kernel.
func BenchmarkForwardDCT(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var src, dst Block
	for i := range src {
		src[i] = int32(rng.Intn(256) - 128)
	}
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			Forward(&src, &dst)
		}
	})
	b.Run("go", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			forwardGo(&src, &dst)
		}
	})
}

// BenchmarkInverseDCT times one 8×8 inverse DCT of raw coefficients, a
// block with no empty row or column: /kernel is what Inverse runs (the
// AVX2 assembly on an AVX2 CPU), /go the Go kernel behind the same scan.
func BenchmarkInverseDCT(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var src, coef, dst Block
	for i := range src {
		src[i] = int32(rng.Intn(256) - 128)
	}
	Forward(&src, &coef)
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			Inverse(&coef, &dst)
		}
	})
	b.Run("go", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			rows, cols := scanMasks(&coef)
			inverseMaskedGo(&coef, &unitQuant, rows, cols, &dst)
		}
	})
}

// quietLevels returns the quantised levels of 256 noisy residual blocks at
// quality 85 — about eight non-zero coefficients per block, what
// edge_quiet's P-frames carry — and their mean number of non-zero levels.
func quietLevels(qz *Quantizer) ([]Block, float64) {
	rng := rand.New(rand.NewSource(6))
	levs := make([]Block, 256)
	nz := 0
	for k := range levs {
		var src, coef Block
		for i := range src {
			src[i] = int32((rng.Intn(13)+rng.Intn(13)-12)/2 + (i%8+i/8)/4 - 1)
		}
		Forward(&src, &coef)
		qz.Quantize(&coef, &levs[k])
		for _, v := range levs[k] {
			if v != 0 {
				nz++
			}
		}
	}
	return levs, float64(nz) / float64(len(levs))
}

// BenchmarkInverseDCTQuantized is the inverse as the encoder and decoder
// call it: on quietLevels, through the dequantising entry point. /kernel is
// what Quantizer.Inverse runs (the AVX2 assembly on an AVX2 CPU), /go the
// Go kernel behind the same scan.
func BenchmarkInverseDCTQuantized(b *testing.B) {
	qz := NewQuantizer(85)
	levs, nz := quietLevels(qz)
	var dst Block
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			qz.Inverse(&levs[i%len(levs)], &dst)
			i++
		}
		b.ReportMetric(nz, "nonzero/block")
	})
	b.Run("go", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			lev := &levs[i%len(levs)]
			rows, cols := scanMasks(lev)
			inverseMaskedGo(lev, &qz.q, rows, cols, &dst)
			i++
		}
		b.ReportMetric(nz, "nonzero/block")
	})
}

// BenchmarkQuantize times one block of Quantize on the forward DCTs of
// noisy residuals at quality 85: /kernel is what Quantize runs (the AVX2
// assembly on an AVX2 CPU), /go the Go kernel.
func BenchmarkQuantize(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	qz := NewQuantizer(85)
	coefs := make([]Block, 256)
	for k := range coefs {
		var src Block
		for i := range src {
			src[i] = int32(rng.Intn(41) - 20)
		}
		Forward(&src, &coefs[k])
	}
	var dst Block
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			qz.Quantize(&coefs[i%len(coefs)], &dst)
			i++
		}
	})
	b.Run("go", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			qz.quantizeGo(&coefs[i%len(coefs)], &dst)
			i++
		}
	})
}
