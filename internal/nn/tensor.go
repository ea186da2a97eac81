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

// Tensor is a dense float32 tensor in channel-major (C, H, W) layout.
// A flat vector is represented as (C, 1, 1).
type Tensor struct {
	Data    []float32
	C, H, W int
}

// NewTensor allocates a zeroed C×H×W tensor.
func NewTensor(c, h, w int) *Tensor {
	return &Tensor{Data: make([]float32, c*h*w), C: c, H: h, W: w}
}

// At returns the element at (c, y, x).
func (t *Tensor) At(c, y, x int) float32 {
	return t.Data[(c*t.H+y)*t.W+x]
}

// Set writes the element at (c, y, x).
func (t *Tensor) Set(c, y, x int, v float32) {
	t.Data[(c*t.H+y)*t.W+x] = v
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return t.C * t.H * t.W }

// Reshape resizes t to c×h×w, reusing Data's capacity when it suffices.
// Contents are undefined after a reshape.
func (t *Tensor) Reshape(c, h, w int) {
	t.C, t.H, t.W = c, h, w
	need := c * h * w
	if cap(t.Data) < need {
		t.Data = make([]float32, need)
		return
	}
	t.Data = t.Data[:need]
}

// Bytes returns the tensor's wire size (float32 payload).
func (t *Tensor) Bytes() int64 { return int64(t.Len()) * 4 }

// Shape describes tensor dimensions without storage.
type Shape struct{ C, H, W int }

// Elems returns the element count of the shape.
func (s Shape) Elems() int { return s.C * s.H * s.W }

// Bytes returns the shape's wire size at float32 precision.
func (s Shape) Bytes() int64 { return int64(s.Elems()) * 4 }

// String renders the shape as CxHxW.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// FromYUV converts a frame to a 3×size×size input tensor (Y, Cb, Cr
// channels, chroma upsampled by the resize, values scaled to [0,1]).
// This mirrors the paper's resize of frames to the square NN input.
func FromYUV(f *frame.YUV, size int) *Tensor {
	t := NewTensor(3, size, size)
	return FromYUVInto(t, f, size)
}

// FromYUVInto converts a frame into dst, reshaped to 3×size×size reusing
// its capacity — the allocation-free steady-state input conversion. Instead
// of materialising a resized intermediate frame (what FromYUV historically
// did), each tensor value is sampled straight off the source planes with
// the arithmetic of frame.Resize, expression for expression, so the tensor
// is element-identical to the allocating path. Returns dst.
func FromYUVInto(dst *Tensor, f *frame.YUV, size int) *Tensor {
	dst.Reshape(3, size, size)
	fromYUVInto(dst.Data, f, size)
	return dst
}

// fromYUVInto fills data (laid out as one 3×size×size item) from f. Split
// out so batched inference can convert directly into batch item storage.
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
// (clipped at the plane edge). The value at (x, y) is the byte
// frame.Resize(src, target, target) holds there — the same expressions in
// the same order, so the same IEEE results — but the terms that depend only
// on the column (sx, x0, fx: a multiply, a floor, two conversions, and the
// edge clamps of the two taps) are computed once per call instead of once
// per sample, a block of columns at a time so the table lives on the stack.
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
			cellRows := dst[cell*y*size : min(cell*(y+1), size)*size]
			for i := 0; i < cols; i++ {
				p00, p10 := float64(rowA[xa[i]]), float64(rowA[xb[i]])
				p01, p11 := float64(rowB[xa[i]]), float64(rowB[xb[i]])
				top := p00 + float64((p10-p00)*fx[i])
				bot := p01 + float64((p11-p01)*fx[i])
				v := float32(frame.Clamp255(top+float64((bot-top)*fy))) / 255
				x, xEnd := cell*(c0+i), min(cell*(c0+i+1), size)
				for row := 0; row < len(cellRows); row += size {
					for dx := x; dx < xEnd; dx++ {
						cellRows[row+dx] = v
					}
				}
			}
		}
	}
}

// clampIndex clamps i to [0, n), frame.Plane.At's border-extension rule.
func clampIndex(i, n int) int {
	return max(0, min(i, n-1))
}
