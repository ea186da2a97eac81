// Package frame defines the pixel-domain types shared by the SiEVE codec,
// the synthetic video renderer, the vision baselines and the neural network:
// planar YUV 4:2:0 images, single-channel planes, and the block/plane
// difference metrics (SAD, SSE, MSE, PSNR) the rest of the system is built on.
package frame

import (
	"encoding/binary"
	"fmt"
	"math"

	"sieve/internal/cpu"
)

// Plane is a single 8-bit image channel with an explicit stride so that
// sub-rectangles can alias a parent plane without copying.
type Plane struct {
	Pix    []byte
	Stride int
	W, H   int
}

// NewPlane allocates a zeroed W×H plane with Stride == W.
func NewPlane(w, h int) *Plane {
	return &Plane{Pix: make([]byte, w*h), Stride: w, W: w, H: h}
}

// At returns the pixel at (x, y). Out-of-range coordinates are clamped to
// the plane edge, matching the border-extension rule video codecs use for
// motion vectors that point outside the frame.
func (p *Plane) At(x, y int) byte {
	if x < 0 {
		x = 0
	} else if x >= p.W {
		x = p.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= p.H {
		y = p.H - 1
	}
	return p.Pix[y*p.Stride+x]
}

// Set writes the pixel at (x, y); out-of-range coordinates are ignored.
func (p *Plane) Set(x, y int, v byte) {
	if x < 0 || x >= p.W || y < 0 || y >= p.H {
		return
	}
	p.Pix[y*p.Stride+x] = v
}

// Row returns the pixels of row y (length W). The slice aliases the plane.
func (p *Plane) Row(y int) []byte {
	return p.Pix[y*p.Stride : y*p.Stride+p.W]
}

// Fill sets every pixel to v.
//
//sieve:noalloc plane reset on the encode path
func (p *Plane) Fill(v byte) {
	for y := 0; y < p.H; y++ {
		row := p.Row(y)
		for x := range row {
			row[x] = v
		}
	}
}

// Clone returns a deep copy with a compact stride.
func (p *Plane) Clone() *Plane {
	q := NewPlane(p.W, p.H)
	for y := 0; y < p.H; y++ {
		copy(q.Row(y), p.Row(y))
	}
	return q
}

// Equal reports whether two planes have identical dimensions and pixels.
func (p *Plane) Equal(q *Plane) bool {
	if p.W != q.W || p.H != q.H {
		return false
	}
	for y := 0; y < p.H; y++ {
		pr, qr := p.Row(y), q.Row(y)
		for x := range pr {
			if pr[x] != qr[x] {
				return false
			}
		}
	}
	return true
}

// CopyFrom copies q's pixels into p. Panics if dimensions differ.
//
//sieve:noalloc reference-frame rollover on the decode path
func (p *Plane) CopyFrom(q *Plane) {
	if p.W != q.W || p.H != q.H {
		panic(fmt.Sprintf("frame: CopyFrom size mismatch %dx%d vs %dx%d", p.W, p.H, q.W, q.H))
	}
	for y := 0; y < p.H; y++ {
		copy(p.Row(y), q.Row(y))
	}
}

// YUV is a planar YUV 4:2:0 frame: full-resolution luma, half-resolution
// chroma in both dimensions. Width and height must be even.
type YUV struct {
	Y, Cb, Cr *Plane
	W, H      int
}

// NewYUV allocates a zeroed frame. w and h are rounded up to even.
func NewYUV(w, h int) *YUV {
	w = (w + 1) &^ 1
	h = (h + 1) &^ 1
	return &YUV{
		Y:  NewPlane(w, h),
		Cb: NewPlane(w/2, h/2),
		Cr: NewPlane(w/2, h/2),
		W:  w, H: h,
	}
}

// Clone returns a deep copy of the frame.
func (f *YUV) Clone() *YUV {
	return &YUV{Y: f.Y.Clone(), Cb: f.Cb.Clone(), Cr: f.Cr.Clone(), W: f.W, H: f.H}
}

// Fill sets the whole frame to a constant YUV colour.
func (f *YUV) Fill(y, cb, cr byte) {
	f.Y.Fill(y)
	f.Cb.Fill(cb)
	f.Cr.Fill(cr)
}

// Equal reports whether two frames are pixel-identical.
func (f *YUV) Equal(g *YUV) bool {
	return f.W == g.W && f.H == g.H &&
		f.Y.Equal(g.Y) && f.Cb.Equal(g.Cb) && f.Cr.Equal(g.Cr)
}

// RGB is a color triple used by the renderer; conversion to YUV uses the
// BT.601 studio-swing matrix, the common choice for surveillance H.264.
type RGB struct{ R, G, B byte }

// ToYUV converts an RGB color to a (Y, Cb, Cr) triple.
func (c RGB) ToYUV() (y, cb, cr byte) {
	r, g, b := float64(c.R), float64(c.G), float64(c.B)
	yf := float64(0.299*r) + float64(0.587*g) + float64(0.114*b)
	cbf := 128 - float64(0.168736*r) - float64(0.331264*g) + float64(0.5*b)
	crf := 128 + float64(0.5*r) - float64(0.418688*g) - float64(0.081312*b)
	return Clamp255(yf), Clamp255(cbf), Clamp255(crf)
}

// Clamp255 saturates v to [0,255] and rounds half up: how Resize and the
// colour conversion store a computed sample.
func Clamp255(v float64) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v + 0.5)
}

// Clamp converts an int to a byte, saturating at [0,255].
func Clamp(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// SAD returns the sum of absolute differences between the w×h block at
// (ax, ay) in a and the block at (bx, by) in b. Blocks may extend past the
// plane edges; border pixels are extended (clamped addressing).
//
//sieve:noalloc motion-search inner loop
func SAD(a *Plane, ax, ay int, b *Plane, bx, by, w, h int) int {
	return SADBounded(a, ax, ay, b, bx, by, w, h, math.MaxInt)
}

// SADBounded is SAD with an early exit: once the running sum reaches bound
// the scan stops (checked per row) and the partial sum — some value >= bound
// — is returned. Motion search uses it with bound = current best cost, where
// only "is this candidate strictly better" matters: because the running sum
// never decreases, a partial sum >= bound proves the exact SAD is too, so
// the comparison outcome (and therefore the chosen vector and the bitstream)
// is identical to computing the full sum. Callers that need the exact value
// on ties must pass bound = best+1.
//
// An 8- or 16-wide block inside both planes is summed by SADRows, with the
// same per-row exit and so the same partial sums; every other block takes
// sadBoundedGo's clamped rows. The codec's motion search does not come here:
// it reads a reference whose border is already replicated and calls SADRows
// and SADx4 directly, so this clamped path is the oracle that search is
// tested against.
//
//sieve:noalloc motion-search inner loop with early exit
func SADBounded(a *Plane, ax, ay int, b *Plane, bx, by, w, h, bound int) int {
	if (w == 8 || w == 16) && h > 0 &&
		ax >= 0 && ay >= 0 && ax+w <= a.W && ay+h <= a.H &&
		bx >= 0 && by >= 0 && bx+w <= b.W && by+h <= b.H {
		return SADRows(a.Pix[ay*a.Stride+ax:], a.Stride, b.Pix[by*b.Stride+bx:], b.Stride, w, h, bound)
	}
	return sadBoundedGo(a, ax, ay, b, bx, by, w, h, bound)
}

// SADRows is SADBounded for blocks given by their first pixel: the h >= 1
// rows of w (8 or 16) pixels start at a[0] and b[0] and lie astride and
// bstride bytes apart, and the sum stops after the first row at which it
// reaches bound. Every row must lie inside a and b; the last pixel of each
// block is bounds-checked, so a short slice panics, and so does any other
// width. On amd64 the rows are summed by sadRows (sad_amd64.s, one PSADBW
// per row), elsewhere by sadRowsGo.
//
//sieve:noalloc motion-search inner loop with early exit
func SADRows(a []byte, astride int, b []byte, bstride int, w, h, bound int) int {
	if w != 8 && w != 16 {
		panic(fmt.Sprintf("frame: SADRows width %d, want 8 or 16", w))
	}
	_ = a[(h-1)*astride+w-1]
	_ = b[(h-1)*bstride+w-1]
	if haveSADAsm {
		return sadRows(a, astride, b, bstride, w, h, bound)
	}
	return sadRowsGo(a, astride, b, bstride, w, h, bound)
}

// sadRowsGo is the Go kernel of SADRows, and on amd64 the oracle its
// assembly is tested against.
//
//sieve:noalloc motion-search inner loop with early exit
func sadRowsGo(a []byte, astride int, b []byte, bstride int, w, h, bound int) int {
	sum := 0
	for y := 0; y < h; y++ {
		sum += rowSAD(a[y*astride:y*astride+w], b[y*bstride:y*bstride+w])
		if sum >= bound {
			return sum
		}
	}
	return sum
}

// SADx4 costs four candidates at once: sads[i] is the full SAD of the w×w
// block (w 8 or 16) starting at a[0], rows astride bytes apart, against the
// one starting at b[offs[i]], rows bstride apart — what SADRows returns at
// bound math.MaxInt. It has no early exit: a caller that compares each sum
// with a bound gets the outcome the bounded SAD gives, because a full sum is
// below a bound exactly when the bounded one is. Every row of the five
// blocks must lie inside a and b, or SADx4 panics, as it does for any other
// width. With AVX2 the sums come from sadX4AVX2 (sadx4_amd64.s), which
// reads each row of a once for all four; elsewhere SADRows sums each
// candidate on its own — sadRowsGo, or the SSE2 sadRows on an amd64 CPU
// without AVX2.
//
//sieve:noalloc motion-search inner loop, four candidates a call
func SADx4(a []byte, astride int, b []byte, bstride int, offs *[4]int, w int, sads *[4]int) {
	if w != 8 && w != 16 {
		panic(fmt.Sprintf("frame: SADx4 width %d, want 8 or 16", w))
	}
	_ = a[(w-1)*astride+w-1]
	last := (w-1)*bstride + w - 1
	for _, o := range offs {
		_ = b[o:][last]
	}
	if cpu.AVX2 {
		sadX4AVX2(a, astride, b, bstride, offs, w, sads)
		return
	}
	for i, o := range offs {
		sads[i] = SADRows(a, astride, b[o:], bstride, w, w, math.MaxInt)
	}
}

// sadBoundedGo is SADBounded's Go kernel: in-plane 8- and 16-wide blocks go
// to sadRowsGo; a block that hangs over a plane edge is read through
// clampedRow, which replicates only the overhang. Other widths sum pixel by
// pixel.
//
//sieve:noalloc motion-search inner loop with early exit
func sadBoundedGo(a *Plane, ax, ay int, b *Plane, bx, by, w, h, bound int) int {
	sum := 0
	if w != 8 && w != 16 {
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
	if h > 0 && ax >= 0 && ay >= 0 && ax+w <= a.W && ay+h <= a.H &&
		bx >= 0 && by >= 0 && bx+w <= b.W && by+h <= b.H {
		return sadRowsGo(a.Pix[ay*a.Stride+ax:], a.Stride, b.Pix[by*b.Stride+bx:], b.Stride, w, h, bound)
	}
	var abuf, bbuf [16]byte
	for y := 0; y < h; y++ {
		sum += rowSAD(clampedRow(a, &abuf, ax, ay+y, w), clampedRow(b, &bbuf, bx, by+y, w))
		if sum >= bound {
			return sum
		}
	}
	return sum
}

// rowSAD is the SAD of two rows of 8 or 16 pixels, eight per step.
func rowSAD(ar, br []byte) int {
	p, q := load8(ar), load8(br)
	lanes := absLanes(p&evenBytes, q&evenBytes) + absLanes(p>>8&evenBytes, q>>8&evenBytes)
	if len(ar) == 16 {
		p, q = load8(ar[8:]), load8(br[8:])
		lanes += absLanes(p&evenBytes, q&evenBytes) + absLanes(p>>8&evenBytes, q>>8&evenBytes)
	}
	// Eight differences of at most 255 per lane: the lane total fits.
	return int(lanes * 0x0001000100010001 >> 48)
}

// clampedRow returns the w <= 16 pixels of row y of p that start at column
// x, with the At rule for whatever lies outside the plane: y is clamped to
// the nearest row and columns left or right of it repeat the edge pixel. A
// span inside the plane is returned in place; otherwise it is assembled in
// buf.
func clampedRow(p *Plane, buf *[16]byte, x, y, w int) []byte {
	if y < 0 {
		y = 0
	} else if y >= p.H {
		y = p.H - 1
	}
	row := p.Pix[y*p.Stride : y*p.Stride+p.W]
	if x >= 0 && x+w <= p.W {
		return row[x : x+w]
	}
	out := buf[:w]
	for i := range out {
		xi := x + i
		if xi < 0 {
			xi = 0
		} else if xi >= p.W {
			xi = p.W - 1
		}
		out[i] = row[xi]
	}
	return out
}

// evenBytes selects every other byte of a word, leaving each in a 16-bit
// lane of its own; w>>8&evenBytes does the same for the odd ones.
const evenBytes = 0x00FF00FF00FF00FF

// absLanes returns |x−y| in each 16-bit lane, for lanes that hold one byte.
// With bit 8 of the lane set before subtracting, the lane holds 256+x−y and
// never borrows from its neighbour; bit 8 survives exactly when x >= y and
// the low byte is then x−y, otherwise the low byte is 256−(y−x), which
// complement-and-increment turns into y−x.
func absLanes(x, y uint64) uint64 {
	const (
		bit8 = 0x0100010001000100
		one  = 0x0001000100010001
	)
	d := (x | bit8) - y
	neg := ^d >> 8 & one
	return (d&evenBytes ^ (neg<<8 - neg)) + neg
}

// load8 reads eight pixels as one word; SAD does not care in which order.
func load8(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }

// SSE returns the sum of squared differences between same-sized planes.
//
//sieve:noalloc similarity inner loop
func SSE(a, b *Plane) int64 {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("frame: SSE size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
	var sum int64
	for y := 0; y < a.H; y++ {
		ar, br := a.Row(y), b.Row(y)
		for x := range ar {
			d := int64(ar[x]) - int64(br[x])
			sum += d * d
		}
	}
	return sum
}

// MSE returns the mean squared error between two same-sized planes.
func MSE(a, b *Plane) float64 {
	return float64(SSE(a, b)) / float64(a.W*a.H)
}

// PSNR returns the peak signal-to-noise ratio in dB between two planes.
// Identical planes return +Inf.
func PSNR(a, b *Plane) float64 {
	mse := MSE(a, b)
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

// PSNRYUV returns the luma PSNR between two frames, the standard
// single-number codec quality measure.
func PSNRYUV(a, b *YUV) float64 { return PSNR(a.Y, b.Y) }

// Resize scales src to w×h with bilinear interpolation. It is used to
// shrink decoded I-frames to the NN input resolution (the paper resizes to
// the 300×300 YOLO input before shipping frames to the cloud). Its arithmetic
// is restated, expression for expression, by the detector's allocation-free
// input conversion (nn's fromYUVInto, which hoists the column terms and is
// pinned against Resize and against a per-sample oracle in its tests): change
// both or neither. Every product carries an explicit float64() so no platform
// fuses it into the add that follows and a resized pixel is the same byte
// everywhere.
func Resize(src *Plane, w, h int) *Plane {
	dst := NewPlane(w, h)
	if src.W == 0 || src.H == 0 || w == 0 || h == 0 {
		return dst
	}
	xRatio := float64(src.W) / float64(w)
	yRatio := float64(src.H) / float64(h)
	for y := 0; y < h; y++ {
		sy := float64((float64(y)+0.5)*yRatio) - 0.5
		y0 := int(math.Floor(sy))
		fy := sy - float64(y0)
		for x := 0; x < w; x++ {
			sx := float64((float64(x)+0.5)*xRatio) - 0.5
			x0 := int(math.Floor(sx))
			fx := sx - float64(x0)
			p00 := float64(src.At(x0, y0))
			p10 := float64(src.At(x0+1, y0))
			p01 := float64(src.At(x0, y0+1))
			p11 := float64(src.At(x0+1, y0+1))
			top := p00 + float64((p10-p00)*fx)
			bot := p01 + float64((p11-p01)*fx)
			dst.Set(x, y, Clamp255(top+float64((bot-top)*fy)))
		}
	}
	return dst
}

// ResizeYUV scales a full frame to w×h (rounded up to even).
func ResizeYUV(src *YUV, w, h int) *YUV {
	w = (w + 1) &^ 1
	h = (h + 1) &^ 1
	return &YUV{
		Y:  Resize(src.Y, w, h),
		Cb: Resize(src.Cb, w/2, h/2),
		Cr: Resize(src.Cr, w/2, h/2),
		W:  w, H: h,
	}
}
