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

// TestSADMatchesReference checks SAD for equality with the oracle, and
// SADBounded for its contract — exact below the bound, some value >= bound
// otherwise — on random windows, strides, block positions around every
// edge, the 8- and 16-wide kernels and the general path.
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
		exact := refSAD(a, ax, ay, b, bx, by, w, h)
		if got := SAD(a, ax, ay, b, bx, by, w, h); got != exact {
			t.Fatalf("SAD %dx%d a%dx%d@(%d,%d) b%dx%d@(%d,%d) = %d, reference %d",
				w, h, a.W, a.H, ax, ay, b.W, b.H, bx, by, got, exact)
		}
		for _, bound := range []int{0, 1, exact / 2, exact, exact + 1, 1 << 40} {
			got := SADBounded(a, ax, ay, b, bx, by, w, h, bound)
			ref := refSADBounded(a, ax, ay, b, bx, by, w, h, bound)
			if exact < bound && (got != exact || ref != exact) {
				t.Fatalf("SADBounded %dx%d bound %d = %d (reference %d), want exact %d", w, h, bound, got, ref, exact)
			}
			if exact >= bound && (got < bound || ref < bound) {
				t.Fatalf("SADBounded %dx%d bound %d = %d (reference %d), want >= bound (exact %d)", w, h, bound, got, ref, exact)
			}
		}
	}
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
