package nn

import (
	"fmt"
	"math"
	"math/bits"
)

// Layer is one stage of a feed-forward network. Layers expose cost metadata
// (FLOPs, output size) so the partitioner can reason about where to run them.
type Layer interface {
	// Name identifies the layer for summaries and partition plans.
	Name() string
	// OutShape maps an input shape to the layer's output shape.
	OutShape(in Shape) Shape
	// FLOPs estimates the multiply-accumulate work for an input shape.
	FLOPs(in Shape) int64
	// ForwardBatch computes the layer output for every item of in into out,
	// which the caller has already shaped to OutShape at in.N items.
	// Implementations write every element of out, may not retain either
	// batch, and compute each item on its own: an item's output depends on
	// that item alone, never on the batch it rides in.
	ForwardBatch(in, out *Batch)
}

// Conv2D is a strided 2-D convolution with same-ish padding.
type Conv2D struct {
	// Tag is the layer's display name.
	Tag string
	// W holds weights indexed [outC][inC][k*k]; B the per-filter bias.
	W [][][]float32
	B []float32
	// K is the (square) kernel size; Stride the spatial stride; Pad the
	// symmetric zero padding.
	K, Stride, Pad int
	InC, OutC      int
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D allocates a zero-weight convolution layer.
func NewConv2D(tag string, inC, outC, k, stride, pad int) *Conv2D {
	w := make([][][]float32, outC)
	for o := range w {
		w[o] = make([][]float32, inC)
		for i := range w[o] {
			w[o][i] = make([]float32, k*k)
		}
	}
	return &Conv2D{Tag: tag, W: w, B: make([]float32, outC),
		K: k, Stride: stride, Pad: pad, InC: inC, OutC: outC}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.Tag }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in Shape) Shape {
	oh := (in.H+2*c.Pad-c.K)/c.Stride + 1
	ow := (in.W+2*c.Pad-c.K)/c.Stride + 1
	return Shape{C: c.OutC, H: oh, W: ow}
}

// FLOPs implements Layer (2 ops per multiply-accumulate). It is the dense
// count on purpose: forwardItem skips the backbone's all-zero (oc, ic)
// pairs, but nn.Partition prices layers by this number, so counting only
// the non-zero pairs would move every auto cut and the split transcript in
// the README.
func (c *Conv2D) FLOPs(in Shape) int64 {
	out := c.OutShape(in)
	return int64(out.C) * int64(out.H) * int64(out.W) * int64(c.InC) * int64(c.K*c.K) * 2
}

// maxZeroGroups bounds the stack array of per-group zero masks forwardItem
// hands the border path; a layer with more filters than 4*maxZeroGroups, or
// more than 64 input channels, runs its border dense.
const maxZeroGroups = 64

// forwardItem is the single-item convolution kernel ForwardBatch runs per
// item. The contract both loops below keep, and the oracle in
// reference_test.go states: an output starts at its filter's bias and then
// takes `+= float32(w*x)` once per tap that lands inside the input, in
// (ic, ky, kx) order. Taps in the zero padding are skipped, never added
// (0*x is not nothing when x is Inf or NaN, or when the sum so far is -0).
// Which loop computes an output, and how many other outputs are in flight
// beside it, is free: the interior of a 3×3 convolution — the outputs whose
// nine taps all land inside the input — is swept plane by plane with no
// test per tap, and every other output (the border of a 3×3, all of any
// other kernel size) clamps its tap ranges once and runs four filters'
// chains side by side.
//
// Both loops also skip an (oc, ic) pair whose K×K weights are all ±0, where
// that is exact: when every input value is finite each skipped product is
// ±0, and adding ±0 leaves a sum unchanged unless the sum is -0. Under
// round-to-nearest a sum is -0 only when both terms are, so an output whose
// bias is not -0 is never -0, and the skip is taken only for such filters.
// Otherwise the pair is multiplied like any other.
//
//sieve:noalloc convolution inner loop
func (c *Conv2D) forwardItem(in []float32, inH, inW int, out []float32, outH, outW int) {
	finite := allFinite(in)
	var oyLo, oyHi, oxLo, oxHi int
	if c.K == 3 {
		oyLo, oyHi = interiorRange(inH, outH, 3, c.Stride, c.Pad)
		oxLo, oxHi = interiorRange(inW, outW, 3, c.Stride, c.Pad)
		c.interior3x3(in, inH, inW, out, outH, outW, oyLo, oyHi, oxLo, oxHi, finite)
	}
	var masks [maxZeroGroups]uint64
	var zero []uint64
	if finite && c.InC <= 64 && c.OutC <= 4*maxZeroGroups {
		zero = masks[:(c.OutC+3)/4]
		c.zeroGroups(zero)
	}
	for oy := 0; oy < outH; oy++ {
		// Columns [left, right) of this row were the interior sweep's.
		left, right := outW, outW
		if oy >= oyLo && oy < oyHi {
			left, right = oxLo, oxHi
		}
		for ox := 0; ox < left; ox++ {
			c.forwardAt(in, inH, inW, out, outH, outW, oy, ox, zero)
		}
		for ox := right; ox < outW; ox++ {
			c.forwardAt(in, inH, inW, out, outH, outW, oy, ox, zero)
		}
	}
}

// allFinite reports whether no value of v is NaN or ±Inf. Those are the
// magnitudes from 0x7f800000 up, which carry into bit 31 when one more
// exponent step is added; four independent ORs collect the carries.
//
//sieve:noalloc per-item scan of the convolution
func allFinite(v []float32) bool {
	const mag, step = 0x7fffffff, 0x00800000
	var a0, a1, a2, a3 uint32
	i := 0
	for ; i+4 <= len(v); i += 4 {
		a0 |= math.Float32bits(v[i])&mag + step
		a1 |= math.Float32bits(v[i+1])&mag + step
		a2 |= math.Float32bits(v[i+2])&mag + step
		a3 |= math.Float32bits(v[i+3])&mag + step
	}
	for ; i < len(v); i++ {
		a0 |= math.Float32bits(v[i])&mag + step
	}
	return (a0|a1|a2|a3)>>31 == 0
}

// zeroTaps reports whether every weight of one (oc, ic) pair is +0 or -0.
func zeroTaps(w []float32) bool {
	for _, v := range w {
		if v != 0 {
			return false
		}
	}
	return true
}

// skippable reports whether filter oc's zero pairs may be skipped over a
// finite input: its bias is not -0.
func (c *Conv2D) skippable(oc int) bool {
	return math.Float32bits(c.B[oc]) != 1<<31
}

// zeroGroups writes, for each group of four filters as forwardAt forms them,
// the mask of input channels on which all four filters are zero; a group
// holding a filter that is not skippable gets an empty mask.
//
//sieve:noalloc per-item setup of the convolution
func (c *Conv2D) zeroGroups(zero []uint64) {
	last := c.OutC - 1
	for g := range zero {
		oc := 4 * g
		group := [4]int{oc, min(oc+1, last), min(oc+2, last), min(oc+3, last)}
		var m uint64
		if c.skippable(group[0]) && c.skippable(group[1]) && c.skippable(group[2]) && c.skippable(group[3]) {
			for ic := 0; ic < c.InC; ic++ {
				if zeroTaps(c.W[group[0]][ic]) && zeroTaps(c.W[group[1]][ic]) &&
					zeroTaps(c.W[group[2]][ic]) && zeroTaps(c.W[group[3]][ic]) {
					m |= 1 << uint(ic)
				}
			}
		}
		zero[g] = m
	}
}

// interiorRange returns the half-open range of output coordinates along one
// axis whose k taps all land inside an input of length inLen; lo == hi when
// there are none (an input smaller than the kernel).
func interiorRange(inLen, outLen, k, stride, pad int) (lo, hi int) {
	lo = min((pad+stride-1)/stride, outLen)
	hi = lo
	if last := inLen - k + pad; last >= 0 {
		hi = max(min(last/stride+1, outLen), lo)
	}
	return lo, hi
}

// interior3x3 computes the outputs in rows [oyLo, oyHi) × columns
// [oxLo, oxHi) of every output plane of a 3×3 convolution. A plane's
// interior is swept once per input channel with the plane itself as the
// accumulator, so an output still sees its taps in (ic, ky, kx) order while
// the nine weights of the (oc, ic) pair sit in locals for the whole sweep
// and neighbouring outputs — independent nine-add chains — overlap in the
// pipeline. With finite set (every input value finite) a pair whose nine
// weights are all ±0 is skipped for a filter that is skippable.
//
//sieve:noalloc convolution inner loop
func (c *Conv2D) interior3x3(in []float32, inH, inW int, out []float32, outH, outW, oyLo, oyHi, oxLo, oxHi int, finite bool) {
	if oxLo == oxHi {
		return
	}
	stride := c.Stride
	span := (oxHi-oxLo-1)*stride + 3
	for oc := 0; oc < c.OutC; oc++ {
		dst := out[oc*outH*outW : (oc+1)*outH*outW]
		bias := c.B[oc]
		for oy := oyLo; oy < oyHi; oy++ {
			o := dst[oy*outW+oxLo : oy*outW+oxHi]
			for i := range o {
				o[i] = bias
			}
		}
		skip := finite && c.skippable(oc)
		for ic := 0; ic < c.InC; ic++ {
			w := c.W[oc][ic][:9]
			if skip && zeroTaps(w) {
				continue
			}
			w0, w1, w2, w3, w4, w5, w6, w7, w8 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8]
			for oy := oyLo; oy < oyHi; oy++ {
				base := (ic*inH+oy*stride-c.Pad)*inW + oxLo*stride - c.Pad
				r0 := in[base : base+span]
				r1 := in[base+inW : base+inW+span]
				r2 := in[base+2*inW : base+2*inW+span]
				o := dst[oy*outW+oxLo : oy*outW+oxHi]
				ix := 0
				for ox := range o {
					acc := o[ox]
					acc += float32(w0 * r0[ix])
					acc += float32(w1 * r0[ix+1])
					acc += float32(w2 * r0[ix+2])
					acc += float32(w3 * r1[ix])
					acc += float32(w4 * r1[ix+1])
					acc += float32(w5 * r1[ix+2])
					acc += float32(w6 * r2[ix])
					acc += float32(w7 * r2[ix+1])
					acc += float32(w8 * r2[ix+2])
					o[ox] = acc
					ix += stride
				}
			}
		}
	}
}

// forwardAt computes every filter's output at one position for any kernel
// size, stride and padding. The ky and kx ranges are clamped to the input
// once, so no tap is tested; four filters run at a time, their accumulators
// in locals, because one output's chain of dependent adds leaves the
// pipeline three-quarters idle. When OutC is not a multiple of four the
// last group repeats its final filter — the same value stored twice. zero
// is empty, or holds per group the input channels to skip (zeroGroups).
//
//sieve:noalloc convolution inner loop
func (c *Conv2D) forwardAt(in []float32, inH, inW int, out []float32, outH, outW, oy, ox int, zero []uint64) {
	k := c.K
	iy0, ix0 := oy*c.Stride-c.Pad, ox*c.Stride-c.Pad
	kyLo, kyHi := clampTaps(iy0, k, inH)
	kxLo, kxHi := clampTaps(ix0, k, inW)
	if kxLo == kxHi {
		kyHi = kyLo // no tap lands inside the input: every output is its bias
	}
	outPlane := outH * outW
	at := oy*outW + ox
	last := c.OutC - 1
	for oc := 0; oc <= last; oc += 4 {
		oc1, oc2, oc3 := min(oc+1, last), min(oc+2, last), min(oc+3, last)
		wa, wb, wc, wd := c.W[oc], c.W[oc1], c.W[oc2], c.W[oc3]
		a0, a1, a2, a3 := c.B[oc], c.B[oc1], c.B[oc2], c.B[oc3]
		var skip uint64
		if len(zero) > 0 {
			skip = zero[oc/4] // then InC <= 64: one pass of the loop below
		}
		// Input channels in 64-wide chunks; within one, the set bits of run
		// in ascending order — every channel but the skipped ones.
		for ic0 := 0; ic0 < c.InC; ic0 += 64 {
			for run := ^uint64(0) >> uint(64-min(c.InC-ic0, 64)) &^ skip; run != 0; run &= run - 1 {
				ic := ic0 + bits.TrailingZeros64(run)
				w0, w1, w2, w3 := wa[ic], wb[ic], wc[ic], wd[ic]
				for ky := kyLo; ky < kyHi; ky++ {
					base := (ic*inH+iy0+ky)*inW + ix0
					t := ky*k + kxLo
					for i, x := range in[base+kxLo : base+kxHi] {
						a0 += float32(w0[t+i] * x)
						a1 += float32(w1[t+i] * x)
						a2 += float32(w2[t+i] * x)
						a3 += float32(w3[t+i] * x)
					}
				}
			}
		}
		out[oc*outPlane+at] = a0
		out[oc1*outPlane+at] = a1
		out[oc2*outPlane+at] = a2
		out[oc3*outPlane+at] = a3
	}
}

// clampTaps returns the half-open range of kernel taps t for which i0+t
// lies in [0, n); lo == hi when no tap does.
func clampTaps(i0, k, n int) (lo, hi int) {
	lo, hi = 0, k
	if i0 < 0 {
		lo = -i0
	}
	if i0+k > n {
		hi = n - i0
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// ForwardBatch implements Layer.
//
//sieve:noalloc batched forward reuses caller buffers
func (c *Conv2D) ForwardBatch(in, out *Batch) {
	if in.C != c.InC {
		panic(fmt.Sprintf("nn: conv %s expects %d channels, got %d", c.Tag, c.InC, in.C))
	}
	if want := c.OutShape(Shape{C: in.C, H: in.H, W: in.W}); out.N != in.N || out.C != want.C || out.H != want.H || out.W != want.W {
		panic(fmt.Sprintf("nn: conv %s output batch is %dx%dx%dx%d, want %dx%s", c.Tag, out.N, out.C, out.H, out.W, in.N, want))
	}
	for i := 0; i < in.N; i++ {
		c.forwardItem(in.Item(i), in.H, in.W, out.Item(i), out.H, out.W)
	}
}

// ReLU clamps activations at zero.
type ReLU struct {
	Tag string
}

var _ Layer = (*ReLU)(nil)

// Name implements Layer.
func (r *ReLU) Name() string { return r.Tag }

// OutShape implements Layer.
func (r *ReLU) OutShape(in Shape) Shape { return in }

// FLOPs implements Layer.
func (r *ReLU) FLOPs(in Shape) int64 { return int64(in.Elems()) }

// reluInto writes max(v, 0) for every element (out may hold stale data, so
// zeros are written explicitly).
//
//sieve:noalloc activation inner loop
func reluInto(in, out []float32) {
	for i, v := range in {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

// ForwardBatch implements Layer.
//
//sieve:noalloc batched forward reuses caller buffers
func (r *ReLU) ForwardBatch(in, out *Batch) {
	reluInto(in.Data, out.Data)
}

// MaxPool2 halves spatial resolution with 2×2 max pooling.
type MaxPool2 struct {
	Tag string
}

var _ Layer = (*MaxPool2)(nil)

// Name implements Layer.
func (m *MaxPool2) Name() string { return m.Tag }

// OutShape implements Layer.
func (m *MaxPool2) OutShape(in Shape) Shape {
	return Shape{C: in.C, H: in.H / 2, W: in.W / 2}
}

// FLOPs implements Layer.
func (m *MaxPool2) FLOPs(in Shape) int64 { return int64(in.Elems()) }

// poolItem is the single-item 2×2 max-pool kernel.
//
//sieve:noalloc pooling inner loop
func poolItem(in []float32, c, inH, inW int, out []float32, oh, ow int) {
	for ch := 0; ch < c; ch++ {
		for y := 0; y < oh; y++ {
			row0 := (ch*inH + 2*y) * inW
			row1 := (ch*inH + 2*y + 1) * inW
			for x := 0; x < ow; x++ {
				v := in[row0+2*x]
				if u := in[row0+2*x+1]; u > v {
					v = u
				}
				if u := in[row1+2*x]; u > v {
					v = u
				}
				if u := in[row1+2*x+1]; u > v {
					v = u
				}
				out[(ch*oh+y)*ow+x] = v
			}
		}
	}
}

// ForwardBatch implements Layer.
//
//sieve:noalloc batched forward reuses caller buffers
func (m *MaxPool2) ForwardBatch(in, out *Batch) {
	for i := 0; i < in.N; i++ {
		poolItem(in.Item(i), in.C, in.H, in.W, out.Item(i), out.H, out.W)
	}
}

// Softmax applies a per-spatial-position softmax across channels (the
// detection head's per-cell class distribution).
type Softmax struct {
	Tag string
}

var _ Layer = (*Softmax)(nil)

// Name implements Layer.
func (s *Softmax) Name() string { return s.Tag }

// OutShape implements Layer.
func (s *Softmax) OutShape(in Shape) Shape { return in }

// FLOPs implements Layer.
func (s *Softmax) FLOPs(in Shape) int64 { return int64(in.Elems()) * 4 }

// softmaxItem is the single-item per-cell softmax kernel (summation order
// over channels fixed).
//
//sieve:noalloc softmax inner loop
func softmaxItem(in []float32, c, h, w int, out []float32) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			maxV := in[y*w+x]
			for ch := 1; ch < c; ch++ {
				if v := in[(ch*h+y)*w+x]; v > maxV {
					maxV = v
				}
			}
			var sum float64
			for ch := 0; ch < c; ch++ {
				sum += math.Exp(float64(in[(ch*h+y)*w+x] - maxV))
			}
			for ch := 0; ch < c; ch++ {
				out[(ch*h+y)*w+x] = float32(math.Exp(float64(in[(ch*h+y)*w+x]-maxV)) / sum)
			}
		}
	}
}

// ForwardBatch implements Layer.
//
//sieve:noalloc batched forward reuses caller buffers
func (s *Softmax) ForwardBatch(in, out *Batch) {
	for i := 0; i < in.N; i++ {
		softmaxItem(in.Item(i), in.C, in.H, in.W, out.Item(i))
	}
}
