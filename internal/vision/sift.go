package vision

import (
	"math"
	"sort"

	"sieve/internal/frame"
)

// The SIFT-lite detector's settings.
const (
	// siftOctaves is the number of pyramid octaves.
	siftOctaves = 3
	// siftContrastThresh rejects weak DoG extrema.
	siftContrastThresh = 6
	// siftMaxKeypoints caps the per-frame keypoint count, keeping
	// descriptor matching tractable (strongest responses win).
	siftMaxKeypoints = 256
	// siftMatchRatio is Lowe's nearest/second-nearest ratio test.
	siftMatchRatio = 0.8
)

// Keypoint is a detected DoG extremum.
type Keypoint struct {
	// X, Y are full-resolution coordinates.
	X, Y int
	// Octave is the pyramid level the point was found at.
	Octave int
	// Response is the absolute DoG value (strength).
	Response float64
}

// Descriptor is a 4×4-cell, 8-orientation-bin gradient histogram (the
// classic 128-dimensional SIFT layout). Our variant skips rotation
// normalisation — surveillance cameras are fixed-angle, which is also the
// regime the paper evaluates.
type Descriptor [128]float32

// SIFTDetector scores frames by symmetric descriptor match failure: the
// fraction of keypoints (in either frame) that find no partner in the
// other. New objects contribute unmatched keypoints; small or texture-poor
// objects contribute few or none, which is exactly the baseline's weakness
// the paper reports on the Coral Reef and Venice feeds.
type SIFTDetector struct {
	prevDesc []Descriptor
	started  bool
}

var _ Detector = (*SIFTDetector)(nil)

// NewSIFT builds a detector.
func NewSIFT() *SIFTDetector { return &SIFTDetector{} }

// Name implements Detector.
func (d *SIFTDetector) Name() string { return "sift" }

// Reset implements Detector.
func (d *SIFTDetector) Reset() {
	d.prevDesc = nil
	d.started = false
}

// Score implements Detector.
func (d *SIFTDetector) Score(f *frame.YUV) float64 {
	_, desc := DetectAndDescribe(f.Y)
	if !d.started {
		d.started = true
		d.prevDesc = desc
		return math.Inf(1)
	}
	prev := d.prevDesc
	d.prevDesc = desc
	total := len(prev) + len(desc)
	if total == 0 {
		return 0
	}
	ab := MatchDescriptors(prev, desc, siftMatchRatio)
	ba := MatchDescriptors(desc, prev, siftMatchRatio)
	return 1 - float64(ab+ba)/float64(total)
}

// DetectAndDescribe finds DoG keypoints in a luma plane and computes their
// descriptors.
func DetectAndDescribe(p *frame.Plane) ([]Keypoint, []Descriptor) {
	var kps []Keypoint
	level := toFloat(p)
	scale := 1
	for oct := 0; oct < siftOctaves; oct++ {
		if level.w < 16 || level.h < 16 {
			break
		}
		g1 := gaussBlur(level, 1.0)
		g2 := gaussBlur(level, 1.6)
		g3 := gaussBlur(level, 2.2)
		d1 := subPlanes(g2, g1)
		d2 := subPlanes(g3, g2)
		kps = append(kps, findExtrema(d1, d2, oct, scale, siftContrastThresh)...)
		level = halveFloat(g2)
		scale *= 2
	}
	// Keep the strongest keypoints.
	sort.Slice(kps, func(i, j int) bool { return kps[i].Response > kps[j].Response })
	if len(kps) > siftMaxKeypoints {
		kps = kps[:siftMaxKeypoints]
	}
	descs := make([]Descriptor, len(kps))
	for i, kp := range kps {
		descs[i] = describe(p, kp)
	}
	return kps, descs
}

// MatchDescriptors counts descriptors in a whose nearest neighbour in b
// passes Lowe's ratio test against the second nearest.
func MatchDescriptors(a, b []Descriptor, ratio float64) int {
	if len(b) < 2 {
		return 0
	}
	matches := 0
	r2 := float32(ratio * ratio)
	for i := range a {
		best, second := float32(math.MaxFloat32), float32(math.MaxFloat32)
		for j := range b {
			d := descDist2(&a[i], &b[j], second)
			if d < best {
				second = best
				best = d
			} else if d < second {
				second = d
			}
		}
		if best < r2*second {
			matches++
		}
	}
	return matches
}

// descDist2 computes squared L2 distance with early termination once the
// running sum exceeds bound.
func descDist2(a, b *Descriptor, bound float32) float32 {
	var sum float32
	for i := 0; i < len(a); i += 8 {
		for k := 0; k < 8; k++ {
			d := a[i+k] - b[i+k]
			sum += d * d
		}
		if sum > bound {
			return sum
		}
	}
	return sum
}

// floatPlane is a float32 image used inside the pyramid.
type floatPlane struct {
	pix  []float32
	w, h int
}

func toFloat(p *frame.Plane) *floatPlane {
	f := &floatPlane{pix: make([]float32, p.W*p.H), w: p.W, h: p.H}
	for y := 0; y < p.H; y++ {
		row := p.Row(y)
		for x, v := range row {
			f.pix[y*p.W+x] = float32(v)
		}
	}
	return f
}

func (f *floatPlane) at(x, y int) float32 {
	if x < 0 {
		x = 0
	} else if x >= f.w {
		x = f.w - 1
	}
	if y < 0 {
		y = 0
	} else if y >= f.h {
		y = f.h - 1
	}
	return f.pix[y*f.w+x]
}

// gaussBlur applies a separable Gaussian of the given sigma.
func gaussBlur(src *floatPlane, sigma float64) *floatPlane {
	radius := int(math.Ceil(2.5 * sigma))
	if radius < 1 {
		radius = 1
	}
	kernel := make([]float32, 2*radius+1)
	var sum float64
	for i := -radius; i <= radius; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		kernel[i+radius] = float32(v)
		sum += v
	}
	for i := range kernel {
		kernel[i] /= float32(sum)
	}
	tmp := &floatPlane{pix: make([]float32, src.w*src.h), w: src.w, h: src.h}
	// Horizontal pass.
	for y := 0; y < src.h; y++ {
		for x := 0; x < src.w; x++ {
			var acc float32
			for k := -radius; k <= radius; k++ {
				acc += kernel[k+radius] * src.at(x+k, y)
			}
			tmp.pix[y*src.w+x] = acc
		}
	}
	dst := &floatPlane{pix: make([]float32, src.w*src.h), w: src.w, h: src.h}
	// Vertical pass.
	for y := 0; y < src.h; y++ {
		for x := 0; x < src.w; x++ {
			var acc float32
			for k := -radius; k <= radius; k++ {
				acc += kernel[k+radius] * tmp.at(x, y+k)
			}
			dst.pix[y*src.w+x] = acc
		}
	}
	return dst
}

func subPlanes(a, b *floatPlane) *floatPlane {
	out := &floatPlane{pix: make([]float32, a.w*a.h), w: a.w, h: a.h}
	for i := range out.pix {
		out.pix[i] = a.pix[i] - b.pix[i]
	}
	return out
}

func halveFloat(src *floatPlane) *floatPlane {
	w, h := src.w/2, src.h/2
	out := &floatPlane{pix: make([]float32, w*h), w: w, h: h}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.pix[y*w+x] = (src.at(2*x, 2*y) + src.at(2*x+1, 2*y) +
				src.at(2*x, 2*y+1) + src.at(2*x+1, 2*y+1)) / 4
		}
	}
	return out
}

// findExtrema locates pixels that are strict maxima or minima across the
// two DoG layers' 3×3 neighbourhoods and exceed the contrast threshold.
func findExtrema(d1, d2 *floatPlane, octave, scale int, thresh float64) []Keypoint {
	var out []Keypoint
	th := float32(thresh)
	for y := 1; y < d1.h-1; y++ {
		for x := 1; x < d1.w-1; x++ {
			v := d1.pix[y*d1.w+x]
			if v < th && v > -th {
				continue
			}
			if isExtremum(d1, d2, x, y, v) {
				out = append(out, Keypoint{
					X: x * scale, Y: y * scale, Octave: octave,
					Response: math.Abs(float64(v)),
				})
			}
		}
	}
	return out
}

func isExtremum(d1, d2 *floatPlane, x, y int, v float32) bool {
	isMax, isMin := true, true
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			n1 := d1.at(x+dx, y+dy)
			n2 := d2.at(x+dx, y+dy)
			if (dx != 0 || dy != 0) && n1 >= v {
				isMax = false
			}
			if (dx != 0 || dy != 0) && n1 <= v {
				isMin = false
			}
			if n2 >= v {
				isMax = false
			}
			if n2 <= v {
				isMin = false
			}
			if !isMax && !isMin {
				return false
			}
		}
	}
	return isMax || isMin
}

// describe computes the 4×4×8 gradient histogram around a keypoint on the
// original-resolution plane.
func describe(p *frame.Plane, kp Keypoint) Descriptor {
	var d Descriptor
	cell := 4 * (kp.Octave + 1) // patch grows with the detection octave
	half := 2 * cell
	for cy := 0; cy < 4; cy++ {
		for cx := 0; cx < 4; cx++ {
			baseX := kp.X - half + cx*cell
			baseY := kp.Y - half + cy*cell
			histBase := (cy*4 + cx) * 8
			for yy := 0; yy < cell; yy++ {
				for xx := 0; xx < cell; xx++ {
					px, py := baseX+xx, baseY+yy
					gx := float64(int(p.At(px+1, py)) - int(p.At(px-1, py)))
					gy := float64(int(p.At(px, py+1)) - int(p.At(px, py-1)))
					mag := math.Sqrt(gx*gx + gy*gy)
					if mag == 0 {
						continue
					}
					ang := math.Atan2(gy, gx) + math.Pi
					bin := int(ang/(2*math.Pi)*8) % 8
					d[histBase+bin] += float32(mag)
				}
			}
		}
	}
	// Normalise, clamp (illumination robustness), renormalise — as in SIFT.
	normalize(&d)
	for i := range d {
		if d[i] > 0.2 {
			d[i] = 0.2
		}
	}
	normalize(&d)
	return d
}

func normalize(d *Descriptor) {
	var sum float64
	for _, v := range d {
		sum += float64(v) * float64(v)
	}
	if sum == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(sum))
	for i := range d {
		d[i] *= inv
	}
}
