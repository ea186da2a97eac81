package codec

import (
	"fmt"

	"sieve/internal/frame"
)

// CostAnalyzer computes the per-frame intra/inter costs that drive the
// scenecut decision. Like x264's lookahead it works on half-resolution
// copies of the *original* frames, so its output depends only on the video
// content — not on quantisation or on where previous I-frames were placed.
// That independence is what lets the offline tuner replay I-frame placement
// for every parameter configuration from one analysis pass.
// The analyzer owns two half-res planes and ping-pongs between them — the
// current downsample target and the previous frame's — so steady-state
// Analyze allocates nothing. Both lie inside a replicated border sized for
// its search (paddedPlane), extended after each downsample, so the search
// reads every block and candidate in place.
type CostAnalyzer struct {
	prev *paddedPlane // last frame's half-res luma (one of half), nil = no history
	half [2]*paddedPlane
	cur  int      // index in half to downsample the next frame into
	seen *visited // motion-search scratch over ±analysisRange
}

// NewCostAnalyzer returns an analyzer with no history; the first Analyze
// call reports Inter == Intra (frame 0 has no reference).
func NewCostAnalyzer() *CostAnalyzer { return &CostAnalyzer{seen: newVisited(analysisRange)} }

// Reset drops the reference history (the buffers are kept for reuse).
func (a *CostAnalyzer) Reset() { a.prev = nil }

// analysisBlock is the block size used on the half-res plane (8 px there
// corresponds to a 16-px macroblock at full resolution).
const analysisBlock = 8

// analysisRange is the half-res motion search radius.
const analysisRange = 8

// Analyze consumes the next original frame and returns its decision costs.
// Steady state (fixed geometry) reuses the analyzer's two half-res buffers.
//
//sieve:noalloc per-frame cost scan pinned to 0 allocs/op by alloc_test.go
func (a *CostAnalyzer) Analyze(f *frame.YUV) Cost {
	w, h := halfDims(f.Y)
	if a.half[0] == nil || a.half[0].W != w || a.half[0].H != h {
		a.half[0] = newPaddedPlane(w, h, analysisBlock, analysisRange)
		a.half[1] = newPaddedPlane(w, h, analysisBlock, analysisRange)
		a.prev = nil
		a.cur = 0
	}
	half := a.half[a.cur]
	Downsample2xInto(&half.Plane, f.Y)
	half.extend()
	intra := intraCost(&half.Plane)
	inter := intra
	if a.prev != nil {
		inter = interCost(half, a.prev, a.seen)
	}
	a.prev = half
	a.cur = 1 - a.cur
	return Cost{Intra: intra, Inter: inter}
}

func halfDims(p *frame.Plane) (int, int) {
	w, h := p.W/2, p.H/2
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	return w, h
}

// Downsample2x box-filters a plane to half resolution in each dimension.
func Downsample2x(p *frame.Plane) *frame.Plane {
	w, h := halfDims(p)
	d := frame.NewPlane(w, h)
	Downsample2xInto(d, p)
	return d
}

// Downsample2xInto box-filters p into the preallocated dst, which must have
// halfDims(p) geometry. Each output pixel rounds the mean of a 2×2 source
// block; the last column or row of an odd-sized plane has no partner and
// is dropped. Rows whose blocks lie inside p take downsampleRow; only a
// plane one pixel wide or high, whose 2×2 blocks leave it, is read through
// clamped At.
func Downsample2xInto(dst, p *frame.Plane) {
	w, h := halfDims(p)
	if dst.W != w || dst.H != h {
		panic(fmt.Sprintf("codec: Downsample2xInto dst %dx%d, want %dx%d", dst.W, dst.H, w, h))
	}
	interior := 2*h <= p.H && 2*w <= p.W
	for y := 0; y < h; y++ {
		row := dst.Row(y)
		if interior {
			downsampleRow(row, p.Pix[(2*y)*p.Stride:][:2*w], p.Pix[(2*y+1)*p.Stride:][:2*w])
			continue
		}
		for x := 0; x < w; x++ {
			s := int(p.At(2*x, 2*y)) + int(p.At(2*x+1, 2*y)) +
				int(p.At(2*x, 2*y+1)) + int(p.At(2*x+1, 2*y+1))
			row[x] = byte((s + 2) / 4)
		}
	}
}

// downsampleRow box-filters the source rows r0 and r1 (2·len(dst) bytes
// each) into dst: downsampleRowSSE2 on amd64 for rows of 16 outputs or
// more, downsampleRowGo otherwise.
//
//sieve:noalloc per-frame analysis downsample
func downsampleRow(dst, r0, r1 []byte) {
	_, _ = r0[2*len(dst)-1], r1[2*len(dst)-1]
	if haveSSE2 && len(dst) >= 16 {
		downsampleRowSSE2(dst, r0, r1)
		return
	}
	downsampleRowGo(dst, r0, r1)
}

// downsampleRowGo is the Go kernel of downsampleRow, and on amd64 the
// kernel of rows narrower than 16.
//
//sieve:noalloc per-frame analysis downsample
func downsampleRowGo(dst, r0, r1 []byte) {
	r0, r1 = r0[:2*len(dst)], r1[:2*len(dst)]
	for x := range dst {
		s := int(r0[2*x]) + int(r0[2*x+1]) + int(r1[2*x]) + int(r1[2*x+1])
		dst[x] = byte((s + 2) / 4)
	}
}

// intraCost approximates the intra coding cost of a plane as the summed
// deviation of each 8×8 block from its own mean (DC prediction residual).
func intraCost(p *frame.Plane) int64 {
	var total int64
	for by := 0; by < p.H; by += analysisBlock {
		for bx := 0; bx < p.W; bx += analysisBlock {
			total += int64(blockDCCost(p, bx, by))
		}
	}
	// Floor keeps the inter/intra ratio meaningful on near-flat video
	// (an all-grey frame has intra cost ~0, which would make every tiny
	// noise wiggle register as a scenecut).
	if min := int64(p.W * p.H / 4); total < min {
		total = min
	}
	return total
}

// blockDCCost is the summed absolute deviation from its rounded mean of the
// block of p at (bx, by), clipped to the plane: dcCostSSE2 on amd64 for a
// whole 8×8 block, blockDCCostGo otherwise.
//
//sieve:noalloc per-frame analysis block cost
func blockDCCost(p *frame.Plane, bx, by int) int {
	if haveSSE2 && bx+analysisBlock <= p.W && by+analysisBlock <= p.H {
		src := p.Pix[by*p.Stride+bx:]
		_ = src[(analysisBlock-1)*p.Stride+analysisBlock-1]
		return dcCostSSE2(src, p.Stride)
	}
	return blockDCCostGo(p, bx, by)
}

// blockDCCostGo is the Go kernel of blockDCCost, and on amd64 the kernel of
// blocks clipped by the plane's right or bottom edge.
//
//sieve:noalloc per-frame analysis block cost
func blockDCCostGo(p *frame.Plane, bx, by int) int {
	w := analysisBlock
	h := analysisBlock
	if bx+w > p.W {
		w = p.W - bx
	}
	if by+h > p.H {
		h = p.H - by
	}
	if w <= 0 || h <= 0 {
		return 0
	}
	sum := 0
	for y := 0; y < h; y++ {
		row := p.Row(by + y)
		for x := 0; x < w; x++ {
			sum += int(row[bx+x])
		}
	}
	mean := (sum + w*h/2) / (w * h)
	cost := 0
	for y := 0; y < h; y++ {
		row := p.Row(by + y)
		for x := 0; x < w; x++ {
			d := int(row[bx+x]) - mean
			if d < 0 {
				d = -d
			}
			cost += d
		}
	}
	return cost
}

// interDeadzonePerPixel is subtracted from each block's motion-compensated
// SAD (per pixel) before it counts toward the frame's inter cost. Sensor
// noise and global flicker produce a small residual in *every* block; the
// deadzone zeroes that floor so the inter cost measures only content the
// previous frame genuinely cannot predict — which is what makes the
// scenecut test separate "object entered" from "noisy quiet frame".
const interDeadzonePerPixel = 1

// interCost is the summed motion-compensated, deadzoned SAD of cur's 8×8
// blocks against ref, using a diamond search per block. Both planes are
// extended, so a block that overhangs cur reads its clamped pixels from
// cur's border.
func interCost(cur, ref *paddedPlane, seen *visited) int64 {
	deadzone := interDeadzonePerPixel * analysisBlock * analysisBlock
	var total int64
	pred := MV{}
	blk := searchBlock{stride: cur.Stride, ref: ref, size: analysisBlock}
	for by := 0; by < cur.H; by += analysisBlock {
		pred = MV{}
		for bx := 0; bx < cur.W; bx += analysisBlock {
			blk.cur, blk.x, blk.y = cur.from(bx, by), bx, by
			mv, sad := diamondSearch(&blk, pred, seen)
			pred = mv
			if sad > deadzone {
				total += int64(sad - deadzone)
			}
		}
	}
	return total
}
