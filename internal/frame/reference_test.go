package frame

import (
	"math"
	"math/rand"
	"testing"
)

// The byte-at-a-time SAD kernels this package shipped before the
// eight-pixels-per-step ones, kept verbatim as the oracle.

func refSAD(a *Plane, ax, ay int, b *Plane, bx, by, w, h int) int {
	sum := 0
	// Fast path: both blocks fully inside their planes.
	if ax >= 0 && ay >= 0 && ax+w <= a.W && ay+h <= a.H &&
		bx >= 0 && by >= 0 && bx+w <= b.W && by+h <= b.H {
		for y := 0; y < h; y++ {
			ar := a.Pix[(ay+y)*a.Stride+ax : (ay+y)*a.Stride+ax+w]
			br := b.Pix[(by+y)*b.Stride+bx : (by+y)*b.Stride+bx+w]
			for x := 0; x < w; x++ {
				d := int(ar[x]) - int(br[x])
				if d < 0 {
					d = -d
				}
				sum += d
			}
		}
		return sum
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := int(a.At(ax+x, ay+y)) - int(b.At(bx+x, by+y))
			if d < 0 {
				d = -d
			}
			sum += d
		}
	}
	return sum
}

func refSADBounded(a *Plane, ax, ay int, b *Plane, bx, by, w, h, bound int) int {
	sum := 0
	if ax >= 0 && ay >= 0 && ax+w <= a.W && ay+h <= a.H &&
		bx >= 0 && by >= 0 && bx+w <= b.W && by+h <= b.H {
		for y := 0; y < h; y++ {
			ar := a.Pix[(ay+y)*a.Stride+ax : (ay+y)*a.Stride+ax+w]
			br := b.Pix[(by+y)*b.Stride+bx : (by+y)*b.Stride+bx+w]
			for x := 0; x < w; x++ {
				d := int(ar[x]) - int(br[x])
				if d < 0 {
					d = -d
				}
				sum += d
			}
			if sum >= bound {
				return sum
			}
		}
		return sum
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := int(a.At(ax+x, ay+y)) - int(b.At(bx+x, by+y))
			if d < 0 {
				d = -d
			}
			sum += d
		}
		if sum >= bound {
			return sum
		}
	}
	return sum
}

// subPlane returns a random pw×ph window of a larger random buffer, so the
// stride differs from the width and the pixels around the window are not
// the ones border extension must produce. Extreme values are over-
// represented: 0 against 255 is where a lane of the kernel could overflow.
func subPlane(rng *rand.Rand, pw, ph int) *Plane {
	stride := pw + rng.Intn(9)
	parent := make([]byte, stride*(ph+2)+8)
	mode := rng.Intn(4)
	for i := range parent {
		switch mode {
		case 0:
			parent[i] = byte(rng.Intn(2) * 255)
		case 1:
			parent[i] = byte(128 + rng.Intn(5) - 2)
		default:
			parent[i] = byte(rng.Intn(256))
		}
	}
	off := rng.Intn(stride + 8)
	return &Plane{Pix: parent[off : off+stride*(ph-1)+pw], Stride: stride, W: pw, H: ph}
}

// offsetNear draws a block origin along an axis of length n for a block of
// length size: inside, straddling the low or the high edge, or fully
// outside on either side.
func offsetNear(rng *rand.Rand, n, size int) int {
	switch rng.Intn(5) {
	case 0:
		return -size - rng.Intn(4) // fully outside, low side
	case 1:
		return -1 - rng.Intn(size-1) // straddles the low edge
	case 2:
		return n - 1 - rng.Intn(size-1) // straddles the high edge
	case 3:
		return n + rng.Intn(4) // fully outside, high side
	default:
		if n <= size {
			return 0
		}
		return rng.Intn(n - size + 1) // inside
	}
}

// checkSAD checks SAD for equality with the oracle, and SADBounded for its
// contract — exact below the bound, some value >= bound otherwise — at
// bounds on both sides of the exact sum. SAD and SADBounded, which run the
// assembly on amd64, must also return exactly what the Go kernel
// sadBoundedGo does, partial sums included, and so must SADRows and its Go
// kernel on a block inside both planes.
func checkSAD(t *testing.T, a *Plane, ax, ay int, b *Plane, bx, by, w, h int) {
	t.Helper()
	exact := refSAD(a, ax, ay, b, bx, by, w, h)
	got, goK := SAD(a, ax, ay, b, bx, by, w, h), sadBoundedGo(a, ax, ay, b, bx, by, w, h, math.MaxInt)
	if got != exact || goK != exact {
		t.Fatalf("SAD %dx%d a%dx%d/%d@(%d,%d) b%dx%d/%d@(%d,%d) = %d (Go kernel %d), reference %d",
			w, h, a.W, a.H, a.Stride, ax, ay, b.W, b.H, b.Stride, bx, by, got, goK, exact)
	}
	for _, bound := range []int{0, 1, exact / 2, exact, exact + 1, math.MaxInt} {
		got := SADBounded(a, ax, ay, b, bx, by, w, h, bound)
		goK := sadBoundedGo(a, ax, ay, b, bx, by, w, h, bound)
		ref := refSADBounded(a, ax, ay, b, bx, by, w, h, bound)
		if got != goK {
			t.Fatalf("SADBounded %dx%d a%dx%d/%d@(%d,%d) b%dx%d/%d@(%d,%d) bound %d = %d, Go kernel %d (exact %d)",
				w, h, a.W, a.H, a.Stride, ax, ay, b.W, b.H, b.Stride, bx, by, bound, got, goK, exact)
		}
		if exact < bound && (got != exact || ref != exact) {
			t.Fatalf("SADBounded %dx%d bound %d = %d (reference %d), want exact %d", w, h, bound, got, ref, exact)
		}
		if exact >= bound && (got < bound || ref < bound) {
			t.Fatalf("SADBounded %dx%d bound %d = %d (reference %d), want >= bound (exact %d)", w, h, bound, got, ref, exact)
		}
		if (w == 8 || w == 16) && h > 0 && ax >= 0 && ay >= 0 && ax+w <= a.W && ay+h <= a.H &&
			bx >= 0 && by >= 0 && bx+w <= b.W && by+h <= b.H {
			ar, br := a.Pix[ay*a.Stride+ax:], b.Pix[by*b.Stride+bx:]
			rows, rowsGo := SADRows(ar, a.Stride, br, b.Stride, w, h, bound), sadRowsGo(ar, a.Stride, br, b.Stride, w, h, bound)
			if rows != goK || rowsGo != goK {
				t.Fatalf("SADRows %dx%d a%dx%d/%d@(%d,%d) b%dx%d/%d@(%d,%d) bound %d = %d (Go kernel %d), SADBounded's Go kernel %d",
					w, h, a.W, a.H, a.Stride, ax, ay, b.W, b.H, b.Stride, bx, by, bound, rows, rowsGo, goK)
			}
		}
	}
}

// TestSADMatchesReference runs checkSAD on random windows, strides, block
// positions around every edge, the 8- and 16-wide kernels and the general
// path.
func TestSADMatchesReference(t *testing.T) {
	n := 60000
	if testing.Short() {
		n = 6000
	}
	rng := rand.New(rand.NewSource(18))
	sizes := []int{8, 16, 8, 16, 4, 12, 17}
	for trial := 0; trial < n; trial++ {
		a := subPlane(rng, 17+rng.Intn(30), 17+rng.Intn(30))
		b := subPlane(rng, 17+rng.Intn(30), 17+rng.Intn(30))
		w, h := sizes[rng.Intn(len(sizes))], sizes[rng.Intn(len(sizes))]
		ax, ay := offsetNear(rng, a.W, w), offsetNear(rng, a.H, h)
		bx, by := offsetNear(rng, b.W, w), offsetNear(rng, b.H, h)
		checkSAD(t, a, ax, ay, b, bx, by, w, h)
	}
}

// FuzzSADMatchesReference runs checkSAD on a geometry and pixels chosen by
// the fuzzer. geom packs, low bits first: the planes' width and height
// (5 bits each, plus 8), each plane's stride padding (3 bits each), the
// block width and height (3 bits each, widths 8 and 16 twice as often as
// the others) and the four block coordinates (6 bits each: three values in
// four put the block inside its plane, where it fits, the rest across or
// past the low or the high edge). Plane a repeats pix; plane b repeats it
// from its middle, so equal pixels are as easy to reach as different ones.
func FuzzSADMatchesReference(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(0x2a5c_3b1e_9f07_4d63), []byte{0, 255, 7, 128, 255, 0, 1, 2, 3})
	rng := rand.New(rand.NewSource(30))
	for range 16 {
		pix := make([]byte, 1+rng.Intn(64))
		rng.Read(pix)
		f.Add(rng.Uint64(), pix)
	}
	sizes := [8]int{8, 16, 8, 16, 1, 4, 12, 17}
	f.Fuzz(func(t *testing.T, geom uint64, pix []byte) {
		if len(pix) == 0 {
			pix = []byte{0}
		}
		take := func(bits uint) int {
			v := int(geom & (1<<bits - 1))
			geom >>= bits
			return v
		}
		pw, ph := 8+take(5), 8+take(5)
		plane := func(pad, from int) *Plane {
			stride := pw + pad
			p := &Plane{Pix: make([]byte, stride*(ph-1)+pw), Stride: stride, W: pw, H: ph}
			for i := range p.Pix {
				p.Pix[i] = pix[(from+i)%len(pix)]
			}
			return p
		}
		a, b := plane(take(3), 0), plane(take(3), len(pix)/2)
		w, h := sizes[take(3)], sizes[take(3)]
		origin := func(n, size int) int {
			c := take(6)
			switch {
			case c < 48 && size <= n:
				return c % (n - size + 1)
			case c&15 < 8:
				return -1 - c&7 // across or past the low edge
			default:
				return n - size + 1 + c&7 // across or past the high edge
			}
		}
		ax, ay := origin(pw, w), origin(ph, h)
		bx, by := origin(pw, w), origin(ph, h)
		checkSAD(t, a, ax, ay, b, bx, by, w, h)
	})
}

// bilinearSample is one sample of Resize(src, w, h) at (x, y), computed on
// its own with Resize's expressions (Resize merely hoists the row-invariant
// terms). internal/nn's reference tests hold a copy as the per-sample oracle
// of the detector's input conversion; this one pins that copy's arithmetic
// to Resize.
func bilinearSample(src *Plane, w, h, x, y int) byte {
	yRatio := float64(src.H) / float64(h)
	sy := float64((float64(y)+0.5)*yRatio) - 0.5
	y0 := int(math.Floor(sy))
	fy := sy - float64(y0)
	xRatio := float64(src.W) / float64(w)
	sx := float64((float64(x)+0.5)*xRatio) - 0.5
	x0 := int(math.Floor(sx))
	fx := sx - float64(x0)
	p00 := float64(src.At(x0, y0))
	p10 := float64(src.At(x0+1, y0))
	p01 := float64(src.At(x0, y0+1))
	p11 := float64(src.At(x0+1, y0+1))
	top := p00 + float64((p10-p00)*fx)
	bot := p01 + float64((p11-p01)*fx)
	return Clamp255(top + float64((bot-top)*fy))
}

// TestSADRowsRefusesOtherWidths pins SADRows's precondition: the kernels
// sum 8 or 16 pixels a row, so any other width must panic rather than sum
// the wrong span.
func TestSADRowsRefusesOtherWidths(t *testing.T) {
	pix := make([]byte, 64)
	for _, w := range []int{0, 4, 12, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SADRows width %d did not panic", w)
				}
			}()
			SADRows(pix, 16, pix, 16, w, 2, math.MaxInt)
		}()
	}
}

// checkSADx4 requires each of SADx4's four sums to equal the textbook loop
// (refSAD) and the Go kernel sadRowsGo at bound math.MaxInt.
func checkSADx4(t *testing.T, a []byte, astride int, b []byte, bstride int, offs *[4]int, w int) {
	t.Helper()
	var got [4]int
	SADx4(a, astride, b, bstride, offs, w, &got)
	pa := &Plane{Pix: a, Stride: astride, W: w, H: w}
	for i, o := range offs {
		want := refSAD(pa, 0, 0, &Plane{Pix: b[o:], Stride: bstride, W: w, H: w}, 0, 0, w, w)
		goK := sadRowsGo(a, astride, b[o:], bstride, w, w, math.MaxInt)
		if got[i] != want || goK != want {
			t.Fatalf("SADx4 %dx%d a/%d b/%d offsets %v: candidate %d = %d (sadRowsGo %d), reference %d",
				w, w, astride, bstride, *offs, i, got[i], goK, want)
		}
	}
}

// FuzzSADx4MatchesReference runs checkSADx4 on a geometry and pixels chosen
// by the fuzzer. geom packs, low bits first: the block width (8 or 16), the
// stride padding of a and of b (4 and 5 bits), the start of the block in a
// (3 bits), b's slack past the last candidate row (4 bits), the pixel mode
// (2 bits) and the four candidate offsets in b (9 bits each, reduced to
// the offsets whose rows lie inside b). The modes are pix repeated (b from
// its middle), 0 against 255 everywhere, and each pixel 0 or 255 by its
// own bit of pix: the extremes where a lane of the kernel could overflow.
func FuzzSADx4MatchesReference(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1), []byte{})
	f.Add(uint64(0x2a5c_3b1e_9f07_4d63), []byte{0, 255, 7, 128, 255, 0, 1, 2, 3})
	for _, mode := range []uint64{1, 2} {
		for _, w := range []uint64{0, 1} {
			f.Add(w|mode<<17|0x5e3d_7b1a<<19, []byte{0xa5, 0x3c, 0xff, 0x00, 0x96})
		}
	}
	rng := rand.New(rand.NewSource(51))
	for range 16 {
		pix := make([]byte, 1+rng.Intn(64))
		rng.Read(pix)
		f.Add(rng.Uint64(), pix)
	}
	f.Fuzz(func(t *testing.T, geom uint64, pix []byte) {
		if len(pix) == 0 {
			pix = []byte{0}
		}
		take := func(bits uint) int {
			v := int(geom & (1<<bits - 1))
			geom >>= bits
			return v
		}
		w := 8 << take(1)
		astride, bstride := w+take(4), w+take(5)
		start := take(3)
		a := make([]byte, start+(w-1)*astride+w)
		b := make([]byte, (w-1)*bstride+w+w*bstride+take(4))
		switch take(2) {
		case 1:
			fillBytes(b, 255)
		case 2:
			for i := range a {
				a[i] = 255 * (pix[i%len(pix)] >> (i % 8) & 1)
			}
			for i := range b {
				b[i] = 255 * (pix[(i+len(pix)/2)%len(pix)] >> ((i + 3) % 8) & 1)
			}
		default:
			for i := range a {
				a[i] = pix[i%len(pix)]
			}
			for i := range b {
				b[i] = pix[(i+len(pix)/2)%len(pix)]
			}
		}
		var offs [4]int
		span := len(b) - (w-1)*bstride - w + 1
		for i := range offs {
			offs[i] = take(9) % span
		}
		checkSADx4(t, a[start:], astride, b, bstride, &offs, w)
	})
}

func fillBytes(p []byte, v byte) {
	for i := range p {
		p[i] = v
	}
}

// TestSADx4RefusesOtherWidthsAndShortSlices pins SADx4's preconditions: any
// width but 8 or 16, a block of a that runs past a, and a candidate whose
// rows leave b (past its end, or before its start) must panic rather than
// sum the wrong pixels.
func TestSADx4RefusesOtherWidthsAndShortSlices(t *testing.T) {
	pix := make([]byte, 16*16)
	var sads [4]int
	for name, call := range map[string]func(){
		"width 12":         func() { SADx4(pix, 16, pix, 16, &[4]int{}, 12, &sads) },
		"short a":          func() { SADx4(pix[:15*16+15], 16, pix, 16, &[4]int{}, 16, &sads) },
		"candidate past b": func() { SADx4(pix, 16, pix, 16, &[4]int{0, 0, 1, 0}, 16, &sads) },
		"negative offset":  func() { SADx4(pix, 8, pix, 8, &[4]int{0, -1, 0, 0}, 8, &sads) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SADx4 with %s did not panic", name)
				}
			}()
			call()
		}()
	}
}
