// Package nn is a from-scratch neural-network inference engine standing in
// for the paper's YOLOv3 reference detector: CHW tensors, convolutional /
// pooling / dense layers with explicit FLOP and output-size accounting, the
// "YOLite" grid detector trained in-repo on synthetic sprites, and a
// Neurosurgeon-style layer partitioner for splitting inference between edge
// and cloud (the paper's NN Deployment service).
package nn

import (
	"fmt"
	"math"

	"sieve/internal/frame"
)

// Shape describes tensor dimensions without storage.
type Shape struct{ C, H, W int }

// Elems returns the element count of the shape.
func (s Shape) Elems() int { return s.C * s.H * s.W }

// Bytes returns the shape's wire size at float32 precision.
func (s Shape) Bytes() int64 { return int64(s.Elems()) * 4 }

// String renders the shape as CxHxW.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// fromYUVInto converts a frame into data, laid out as one 3×size×size
// item (Y, Cb, Cr channels, chroma upsampled by the resize, values scaled to
// [0,1]) — the paper's resize of frames to the square NN input, written
// straight into batch item storage. Instead of materialising a resized
// intermediate frame, each value is sampled straight off the source planes
// with the arithmetic of frame.Resize, expression for expression, so the
// item is element-identical to resizing the frame and then indexing it.
//
//sieve:noalloc input conversion on the batched detect path
func fromYUVInto(data []float32, f *frame.YUV, size int) {
	// ResizeYUV rounds the resize target up to even; sample with the same
	// target geometry so every ratio — and therefore every value — matches
	// the historical resize-then-index path exactly.
	rw := (size + 1) &^ 1
	plane := size * size
	// Luma at full input resolution; the chroma planes are half resolution,
	// and nearest-neighbour upsampling writes each sample into its 2×2 cell.
	resampleInto(data[:plane], size, f.Y, rw, 1)
	resampleInto(data[plane:2*plane], size, f.Cb, rw/2, 2)
	resampleInto(data[2*plane:3*plane], size, f.Cr, rw/2, 2)
}

// resampleInto writes src, bilinearly resized to target×target and scaled to
// [0,1], into the size×size plane dst, each sample filling a cell×cell block
// (clipped at the plane edge); cell is 1 (luma) or 2 (chroma). The value at
// (x, y) is the byte frame.Resize(src, target, target) holds there — the
// same expressions in the same order, so the same IEEE results — but the
// terms that depend only on the column (sx, x0, fx: a multiply, a floor, two
// conversions, and the edge clamps of the two taps) are computed once per
// call instead of once per sample, a block of columns at a time so the table
// lives on the stack. A luma sample is stored straight into its row, a
// chroma sample into the two rows of its 2×2 cell.
//
//sieve:noalloc input conversion on the batched detect path
func resampleInto(dst []float32, size int, src *frame.Plane, target, cell int) {
	const block = 64
	var (
		xa, xb [block]int // the two taps' columns, clamped to the plane
		fx     [block]float64
	)
	xRatio := float64(src.W) / float64(target)
	yRatio := float64(src.H) / float64(target)
	n := (size + cell - 1) / cell // samples per axis that land inside dst
	for c0 := 0; c0 < n; c0 += block {
		cols := min(block, n-c0)
		for i := 0; i < cols; i++ {
			sx := float64((float64(c0+i)+0.5)*xRatio) - 0.5
			x0 := int(math.Floor(sx))
			fx[i] = sx - float64(x0)
			xa[i], xb[i] = clampIndex(x0, src.W), clampIndex(x0+1, src.W)
		}
		for y := 0; y < n; y++ {
			sy := float64((float64(y)+0.5)*yRatio) - 0.5
			y0 := int(math.Floor(sy))
			fy := sy - float64(y0)
			rowA, rowB := src.Row(clampIndex(y0, src.H)), src.Row(clampIndex(y0+1, src.H))
			if cell == 1 {
				out := dst[y*size+c0 : y*size+c0+cols]
				for i := range out {
					out[i] = unitByte[frame.Clamp255(bilinear(rowA, rowB, xa[i], xb[i], fx[i], fy))]
				}
				continue
			}
			// The cell's second row and column fall outside an odd-sized
			// plane at its last sample: bot is then top again, and the
			// column is skipped.
			top := dst[2*y*size : 2*y*size+size]
			bot := top
			if 2*y+1 < size {
				bot = dst[(2*y+1)*size : (2*y+1)*size+size]
			}
			for i := 0; i < cols; i++ {
				v := unitByte[frame.Clamp255(bilinear(rowA, rowB, xa[i], xb[i], fx[i], fy))]
				x := 2 * (c0 + i)
				top[x], bot[x] = v, v
				if x+1 < size {
					top[x+1], bot[x+1] = v, v
				}
			}
		}
	}
}

// bilinear is frame.Resize's sample between the taps xa and xb of rows a
// and b, at fractions fx and fy, before it is clamped and rounded to a byte.
func bilinear(a, b []byte, xa, xb int, fx, fy float64) float64 {
	p00, p10 := float64(a[xa]), float64(a[xb])
	p01, p11 := float64(b[xa]), float64(b[xb])
	top := p00 + float64((p10-p00)*fx)
	bot := p01 + float64((p11-p01)*fx)
	return top + float64((bot-top)*fy)
}

// unitByte maps a byte to its value scaled to [0,1], float32(b)/255.
var unitByte = func() (t [256]float32) {
	for b := range t {
		t[b] = float32(b) / 255
	}
	return t
}()

// clampIndex clamps i to [0, n), frame.Plane.At's border-extension rule.
func clampIndex(i, n int) int {
	return max(0, min(i, n-1))
}
