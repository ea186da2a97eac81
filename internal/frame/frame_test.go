package frame

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomPlane(rng *rand.Rand, w, h int) *Plane {
	p := NewPlane(w, h)
	rng.Read(p.Pix)
	return p
}

func TestPlaneAtClamps(t *testing.T) {
	p := NewPlane(4, 3)
	p.Set(0, 0, 10)
	p.Set(3, 2, 20)
	if p.At(-5, -5) != 10 {
		t.Errorf("At(-5,-5) = %d, want 10 (clamped to top-left)", p.At(-5, -5))
	}
	if p.At(100, 100) != 20 {
		t.Errorf("At(100,100) = %d, want 20 (clamped to bottom-right)", p.At(100, 100))
	}
}

func TestPlaneSetIgnoresOutOfRange(t *testing.T) {
	p := NewPlane(2, 2)
	p.Set(-1, 0, 9)
	p.Set(0, 5, 9)
	for _, v := range p.Pix {
		if v != 0 {
			t.Fatal("out-of-range Set modified pixels")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewPlane(8, 8)
	p.Fill(7)
	q := p.Clone()
	q.Set(0, 0, 99)
	if p.At(0, 0) != 7 {
		t.Fatal("Clone shares storage with original")
	}
	if !p.Equal(p.Clone()) {
		t.Fatal("Clone not equal to original")
	}
}

func TestSubPlaneViaStride(t *testing.T) {
	p := NewPlane(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			p.Set(x, y, byte(y*8+x))
		}
	}
	// A 4x4 view at (2,2).
	sub := &Plane{Pix: p.Pix[2*p.Stride+2:], Stride: p.Stride, W: 4, H: 4}
	if sub.At(0, 0) != p.At(2, 2) || sub.At(3, 3) != p.At(5, 5) {
		t.Fatal("strided sub-plane misaddressed")
	}
}

func TestYUVAllocationRoundsUp(t *testing.T) {
	f := NewYUV(5, 3)
	if f.W != 6 || f.H != 4 {
		t.Fatalf("NewYUV(5,3) = %dx%d, want 6x4", f.W, f.H)
	}
	if f.Cb.W != 3 || f.Cb.H != 2 {
		t.Fatalf("chroma = %dx%d, want 3x2", f.Cb.W, f.Cb.H)
	}
}

func TestRGBToYUVKnownColors(t *testing.T) {
	y, cb, cr := RGB{255, 255, 255}.ToYUV()
	if y != 255 || cb != 128 || cr != 128 {
		t.Errorf("white = (%d,%d,%d), want (255,128,128)", y, cb, cr)
	}
	y, cb, cr = RGB{0, 0, 0}.ToYUV()
	if y != 0 || cb != 128 || cr != 128 {
		t.Errorf("black = (%d,%d,%d), want (0,128,128)", y, cb, cr)
	}
	y, _, cr = RGB{255, 0, 0}.ToYUV()
	if y != 76 || cr != 255 {
		t.Errorf("red = y=%d cr=%d, want y=76 cr=255", y, cr)
	}
}

func TestSADZeroForIdenticalBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randomPlane(rng, 32, 32)
	if got := SAD(p, 4, 4, p, 4, 4, 16, 16); got != 0 {
		t.Fatalf("SAD of block with itself = %d, want 0", got)
	}
}

func TestSADBorderExtension(t *testing.T) {
	p := NewPlane(8, 8)
	p.Fill(100)
	q := NewPlane(8, 8)
	q.Fill(100)
	// Block partially outside: clamped pixels are still 100 on both sides.
	if got := SAD(p, -4, -4, q, -4, -4, 8, 8); got != 0 {
		t.Fatalf("border-extended SAD = %d, want 0", got)
	}
}

func TestSADFastSlowAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomPlane(rng, 24, 24)
	b := randomPlane(rng, 24, 24)
	// Fully-inside call (fast path) must agree with a manual loop.
	want := 0
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			d := int(a.At(3+x, 5+y)) - int(b.At(9+x, 2+y))
			if d < 0 {
				d = -d
			}
			want += d
		}
	}
	if got := SAD(a, 3, 5, b, 9, 2, 8, 8); got != want {
		t.Fatalf("SAD fast path = %d, want %d", got, want)
	}
}

func TestSADBoundedExactBelowBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomPlane(rng, 32, 32)
	b := randomPlane(rng, 32, 32)
	// Interior and border-crossing placements, fast and clamped paths alike.
	cases := [][4]int{{4, 4, 6, 5}, {0, 0, -3, -2}, {20, 20, 27, 26}}
	for _, c := range cases {
		exact := SAD(a, c[0], c[1], b, c[2], c[3], 8, 8)
		if got := SADBounded(a, c[0], c[1], b, c[2], c[3], 8, 8, exact+1); got != exact {
			t.Fatalf("SADBounded(bound=exact+1) at %v = %d, want exact %d", c, got, exact)
		}
	}
}

func TestSADBoundedEarlyExit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomPlane(rng, 32, 32)
	b := randomPlane(rng, 32, 32)
	exact := SAD(a, 4, 4, b, 9, 7, 16, 16)
	if exact == 0 {
		t.Fatal("degenerate fixture: exact SAD is 0")
	}
	// Any bound <= exact must return some value >= bound (the only property
	// motion search relies on: "this candidate is not strictly better").
	for _, bound := range []int{1, exact / 2, exact} {
		if got := SADBounded(a, 4, 4, b, 9, 7, 16, 16, bound); got < bound {
			t.Fatalf("SADBounded(bound=%d) = %d, want >= bound", bound, got)
		}
	}
}

func TestMSEAndPSNR(t *testing.T) {
	a := NewPlane(4, 4)
	b := NewPlane(4, 4)
	b.Fill(10)
	if got := MSE(a, b); got != 100 {
		t.Fatalf("MSE = %v, want 100", got)
	}
	wantPSNR := 10 * math.Log10(255*255/100.0)
	if got := PSNR(a, b); math.Abs(got-wantPSNR) > 1e-9 {
		t.Fatalf("PSNR = %v, want %v", got, wantPSNR)
	}
	if !math.IsInf(PSNR(a, a), 1) {
		t.Fatal("PSNR of identical planes should be +Inf")
	}
}

func TestResizeConstantPlane(t *testing.T) {
	p := NewPlane(64, 48)
	p.Fill(77)
	q := Resize(p, 17, 13)
	for _, v := range q.Pix {
		if v != 77 {
			t.Fatalf("resized constant plane has pixel %d", v)
		}
	}
}

func TestResizeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomPlane(rng, 16, 16)
	q := Resize(p, 16, 16)
	if !p.Equal(q) {
		t.Fatal("identity resize changed pixels")
	}
}

func TestResizePreservesMeanApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := randomPlane(rng, 64, 64)
	q := Resize(p, 32, 32)
	mean := func(pl *Plane) float64 {
		var s int64
		for _, v := range pl.Pix {
			s += int64(v)
		}
		return float64(s) / float64(len(pl.Pix))
	}
	if d := math.Abs(mean(p) - mean(q)); d > 3 {
		t.Fatalf("downsample shifted mean by %.2f", d)
	}
}

func TestResizeYUVDimensions(t *testing.T) {
	f := NewYUV(640, 360)
	g := ResizeYUV(f, 300, 300)
	if g.W != 300 || g.H != 300 || g.Cb.W != 150 || g.Cb.H != 150 {
		t.Fatalf("ResizeYUV dims: %dx%d chroma %dx%d", g.W, g.H, g.Cb.W, g.Cb.H)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(-1) != 0 || Clamp(256) != 255 || Clamp(128) != 128 {
		t.Fatal("Clamp misbehaves")
	}
}

func TestSSESymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPlane(rng, 16, 16)
		b := randomPlane(rng, 16, 16)
		return SSE(a, b) == SSE(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestYUVEqualAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := NewYUV(32, 32)
	rng.Read(f.Y.Pix)
	rng.Read(f.Cb.Pix)
	rng.Read(f.Cr.Pix)
	g := f.Clone()
	if !f.Equal(g) {
		t.Fatal("clone not equal")
	}
	g.Y.Set(0, 0, g.Y.At(0, 0)+1)
	if f.Equal(g) {
		t.Fatal("Equal missed a luma difference")
	}
}

func BenchmarkSAD16x16(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	p := randomPlane(rng, 1920, 1080)
	q := randomPlane(rng, 1920, 1080)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SAD(p, 100, 100, q, 103, 98, 16, 16)
	}
}

func BenchmarkResize1080pTo300(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p := randomPlane(rng, 1920, 1080)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Resize(p, 300, 300)
	}
}

// TestBilinearSampleMatchesResize pins the per-sample oracle the nn input
// conversion is tested against: bilinearSample(src, w, h, x, y) equals the
// pixel Resize(src, w, h) writes at (x, y), bit for bit, including
// non-integral ratios and border-clamped taps.
func TestBilinearSampleMatchesResize(t *testing.T) {
	src := NewPlane(37, 23)
	v := byte(3)
	for i := range src.Pix {
		v = v*167 + 41
		src.Pix[i] = v
	}
	for _, dim := range [][2]int{{16, 16}, {48, 48}, {7, 31}, {37, 23}, {64, 9}} {
		w, h := dim[0], dim[1]
		dst := Resize(src, w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if got, want := bilinearSample(src, w, h, x, y), dst.At(x, y); got != want {
					t.Fatalf("%dx%d at (%d,%d): bilinearSample %d != Resize %d", w, h, x, y, got, want)
				}
			}
		}
	}
}
