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

// convBlock is how many filters forwardItem takes at a time: one block of
// the pack, and on amd64 one border position's sums in four XMM registers
// of four lanes.
const convBlock = 16

// convPack is one convolution's weights in the layout forwardItem reads,
// built by pack once per ForwardBatchRange call and shared by every item
// of the batch. Only the weights go in; what depends on an item's values
// (allFinite, which may void the masks) is decided per item, on a copy.
type convPack struct {
	// panel is the weights of each block of convBlock filters in
	// panelSSE2's order: block b's panel starts at b·InC·K·K·convBlock and
	// holds W[b·convBlock+j][ic][t] at (ic·K·K+t)·convBlock+j. The lanes
	// past the layer's last filter are 0; panelSSE2 computes them and
	// forwardAtSSE2 never stores them. Nil when the Go kernels run.
	panel []float32
	// zero[oc] is the input channels on which filter oc is all ±0 — none
	// for a filter that is not skippable, or in a layer of more than 64
	// input channels.
	zero []uint64
	// bias is B padded with zeros to whole blocks, so each block's sixteen
	// lanes start at bias[b·convBlock].
	bias []float32
	// skips[b] reports whether any filter of block b has a zero pair.
	skips []bool
}

// resize returns s with length n, reusing its storage when it suffices.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// panelFits reports whether c runs the SSE2 kernels: on amd64, with at
// most 64 input channels (the channels a position runs are one uint64).
func (c *Conv2D) panelFits() bool { return haveSSE2 && c.InC <= 64 }

// pack is the one pass over c's weights a ForwardBatchRange call makes
// (ForwardBatch makes its own): it fills p's masks and biases, and with
// sse its panel. Packing per call rather than once per Inference means
// training, which writes the head's weights between calls, needs no
// invalidation.
//
//sieve:noalloc per-call setup of the convolution
func (c *Conv2D) pack(p *convPack, sse bool) {
	kk := c.K * c.K
	step := c.InC * kk * convBlock // one block's panel
	blocks := (c.OutC + convBlock - 1) / convBlock
	p.zero, p.skips = resize(p.zero, c.OutC), resize(p.skips, blocks)
	p.bias = resize(p.bias, blocks*convBlock)
	clear(p.bias[copy(p.bias, c.B):])
	clear(p.skips)
	if sse {
		p.panel = resize(p.panel, blocks*step)
		clear(p.panel[(blocks-1)*step:]) // the last block's unused lanes
	} else {
		p.panel = nil
	}
	for oc, filter := range c.W {
		var panel []float32
		if sse {
			panel = p.panel[oc/convBlock*step+oc%convBlock:]
		}
		var m uint64
		for ic, w := range filter {
			w = w[:kk]
			var mag uint32 // the ORed bits of every weight; sign aside, zero iff all are ±0
			switch {
			case panel != nil && kk == 9:
				w, q := (*[9]float32)(w), (*[8*convBlock + 1]float32)(panel[ic*kk*convBlock:])
				q[0], q[convBlock], q[2*convBlock] = w[0], w[1], w[2]
				q[3*convBlock], q[4*convBlock], q[5*convBlock] = w[3], w[4], w[5]
				q[6*convBlock], q[7*convBlock], q[8*convBlock] = w[6], w[7], w[8]
				mag = math.Float32bits(w[0]) | math.Float32bits(w[1]) | math.Float32bits(w[2]) |
					math.Float32bits(w[3]) | math.Float32bits(w[4]) | math.Float32bits(w[5]) |
					math.Float32bits(w[6]) | math.Float32bits(w[7]) | math.Float32bits(w[8])
			case panel != nil:
				q := panel[ic*kk*convBlock:]
				for t, v := range w {
					q[t*convBlock] = v
					mag |= math.Float32bits(v)
				}
			default:
				for _, v := range w {
					if mag |= math.Float32bits(v); mag<<1 != 0 {
						break
					}
				}
			}
			if mag<<1 == 0 {
				m |= 1 << uint(ic)
			}
		}
		if !c.skippable(oc) || c.InC > 64 {
			m = 0
		}
		p.zero[oc] = m
		p.skips[oc/convBlock] = p.skips[oc/convBlock] || m != 0
	}
}

// forwardItem is the single-item convolution kernel, over the weights p
// packs. The contract every loop below keeps, and the oracle in
// reference_test.go states: an output starts at its filter's bias and then
// takes `+= float32(w*x)` once per tap that lands inside the input, in
// (ic, ky, kx) order. Taps in the zero padding are skipped, never added
// (0*x is not nothing when x is Inf or NaN, or when the sum so far is -0).
// Which loop computes an output, and how many other outputs are in flight
// beside it, is free: the interior of a 3×3 convolution — the outputs whose
// nine taps all land inside the input — is swept plane by plane with no
// test per tap, and every other output (the border of a 3×3, all of any
// other kernel size) clamps its tap ranges once and runs a block of
// filters side by side.
//
// With a panel in p the SSE2 kernels run, without one the Go kernels. The
// Go kernels sweep the 3×3 interior with interior3x3Go and run every other
// output on forwardAtGo. The SSE2 kernels run every output of a block on
// forwardAtSSE2 unless the block has a pair it may skip — a property of
// the weights: the trained head has none, the backbone's blocks all do —
// and then sweep the 3×3 interior with interior3x3SSE2 (interior3x3Go
// below four columns or past stride 2), skipping those pairs, first.
//
// The loops skip an (oc, ic) pair whose K×K weights are all ±0, where that
// is exact: when every input value is finite each skipped product is ±0,
// and adding ±0 leaves a sum unchanged unless the sum is -0. Under
// round-to-nearest a sum is -0 only when both terms are, so an output whose
// bias is not -0 is never -0, and the skip is taken only for such filters.
// Otherwise the pair is multiplied like any other: an item with a NaN or
// ±Inf runs every block on a cleared copy of its masks, and the pack the
// other items share keeps its own.
//
//sieve:noalloc convolution inner loop
func (c *Conv2D) forwardItem(in []float32, inH, inW int, out []float32, outH, outW int, p *convPack) {
	var oyLo, oyHi, oxLo, oxHi int
	if c.K == 3 {
		oyLo, oyHi = interiorRange(inH, outH, 3, c.Stride, c.Pad)
		oxLo, oxHi = interiorRange(inW, outW, 3, c.Stride, c.Pad)
	}
	step := c.InC * c.K * c.K * convBlock
	var dense [convBlock]uint64 // a non-finite item's masks: every pair runs
	finite, scanned := false, false
	for b, oc0 := 0, 0; oc0 < c.OutC; b, oc0 = b+1, oc0+convBlock {
		blk := p.zero[oc0:min(oc0+convBlock, c.OutC)]
		if p.skips[b] && !scanned {
			finite, scanned = allFinite(in), true
		}
		if !finite {
			blk = dense[:len(blk)]
		}
		var panel []float32
		if p.panel != nil {
			panel = p.panel[b*step : (b+1)*step]
		}
		bias := (*[convBlock]float32)(p.bias[oc0:])
		sweep := c.K == 3 && (p.skips[b] || panel == nil)
		if sweep {
			if panel != nil && (c.Stride == 1 || c.Stride == 2) && oxHi-oxLo >= 4 {
				c.interior3x3SSE2(in, inH, inW, out, outH, outW, oyLo, oyHi, oxLo, oxHi, oc0, blk)
			} else {
				c.interior3x3Go(in, inH, inW, out, outH, outW, oyLo, oyHi, oxLo, oxHi, oc0, blk)
			}
		}
		for oy := 0; oy < outH; oy++ {
			// Columns [left, right) of this row were the interior sweep's.
			left, right := outW, outW
			if sweep && oy >= oyLo && oy < oyHi {
				left, right = oxLo, oxHi
			}
			for ox := 0; ox < outW; ox++ {
				switch {
				case ox >= left && ox < right:
				case panel != nil:
					c.forwardAtSSE2(in, inH, inW, out, outH, outW, oy, ox, oc0, blk, panel, bias)
				default:
					c.forwardAtGo(in, inH, inW, out, outH, outW, oy, ox, oc0, blk)
				}
			}
		}
	}
}

// allFinite reports whether no value of v is NaN or ±Inf: on amd64 by
// allFiniteSSE2 up to the last multiple of four values, elsewhere by
// allFiniteGo.
//
//sieve:noalloc per-item scan of the convolution
func allFinite(v []float32) bool {
	if n := len(v) &^ 3; haveSSE2 && n > 0 {
		return allFiniteSSE2(&v[0], n) && allFiniteGo(v[n:])
	}
	return allFiniteGo(v)
}

// allFiniteGo is the Go kernel of allFinite. NaN and ±Inf are the
// magnitudes from 0x7f800000 up, which carry into bit 31 when one more
// exponent step is added; four independent ORs collect the carries.
//
//sieve:noalloc per-item scan of the convolution
func allFiniteGo(v []float32) bool {
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

// skippable reports whether filter oc's zero pairs may be skipped over a
// finite input: its bias is not -0.
func (c *Conv2D) skippable(oc int) bool {
	return math.Float32bits(c.B[oc]) != 1<<31
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

// interior3x3Go computes the outputs in rows [oyLo, oyHi) × columns
// [oxLo, oxHi) of output planes [oc0, oc0+len(zero)) of a 3×3 convolution.
// A plane's interior is swept once per input channel with the plane itself
// as the accumulator, so an output still sees its taps in (ic, ky, kx)
// order while the nine weights of the (oc, ic) pair sit in locals for the
// whole sweep and neighbouring outputs — independent nine-add chains —
// overlap in the pipeline. The pairs in zero (convPack) are skipped. It
// is the Go kernel of the sweep and, on amd64, its oracle.
//
//sieve:noalloc convolution inner loop
func (c *Conv2D) interior3x3Go(in []float32, inH, inW int, out []float32, outH, outW, oyLo, oyHi, oxLo, oxHi, oc0 int, zero []uint64) {
	if oxLo == oxHi {
		return
	}
	stride := c.Stride
	span := (oxHi-oxLo-1)*stride + 3
	for j, skip := range zero {
		oc := oc0 + j
		dst := out[oc*outH*outW : (oc+1)*outH*outW]
		bias := c.B[oc]
		for oy := oyLo; oy < oyHi; oy++ {
			o := dst[oy*outW+oxLo : oy*outW+oxHi]
			for i := range o {
				o[i] = bias
			}
		}
		for ic := 0; ic < c.InC; ic++ {
			if skip>>uint(ic)&1 != 0 {
				continue
			}
			w := c.W[oc][ic][:9]
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

// interior3x3SSE2 is interior3x3Go at stride 1 or 2 over at least four
// columns: interiorSSE2 sweeps each (oc, ic) pair's rows four outputs at a
// time.
//
//sieve:noalloc convolution inner loop
func (c *Conv2D) interior3x3SSE2(in []float32, inH, inW int, out []float32, outH, outW, oyLo, oyHi, oxLo, oxHi, oc0 int, zero []uint64) {
	if oyLo == oyHi {
		return // interiorSSE2 needs a row
	}
	stride, rows, cols := c.Stride, oyHi-oyLo, oxHi-oxLo
	// span is the input one channel's sweep reads: the last row's third
	// tap row, up to the last output's third tap.
	span := ((rows-1)*stride+2)*inW + (cols-1)*stride + 3
	plane := outH * outW
	for j, skip := range zero {
		oc := oc0 + j
		dst := out[oc*plane : (oc+1)*plane]
		o := dst[oyLo*outW+oxLo : (oyHi-1)*outW+oxHi]
		for i := range o[:cols] {
			o[i] = c.B[oc]
		}
		for r := outW; r < len(o); r += outW {
			copy(o[r:r+cols], o[:cols])
		}
		for ic := 0; ic < c.InC; ic++ {
			if skip>>uint(ic)&1 != 0 {
				continue
			}
			base := (ic*inH+oyLo*stride-c.Pad)*inW + oxLo*stride - c.Pad
			x := in[base : base+span]
			interiorSSE2((*[9]float32)(c.W[oc][ic]), &x[0], &o[0], inW, outW, rows, cols, stride)
		}
	}
}

// forwardAtGo computes the outputs of filters [oc0, oc0+len(zero)) at one
// position for any kernel size, stride and padding. The ky and kx ranges
// are clamped to the input once, so no tap is tested; four filters run at a
// time, their accumulators in locals, because one output's chain of
// dependent adds leaves the pipeline three-quarters idle. When the block's
// width is not a multiple of four the last group repeats its final filter
// — the same value stored twice. A group skips the input channels all four
// of its filters skip (zero, convPack). It is the Go kernel of the border
// and, on amd64, the oracle of forwardAtSSE2.
//
//sieve:noalloc convolution inner loop
func (c *Conv2D) forwardAtGo(in []float32, inH, inW int, out []float32, outH, outW, oy, ox, oc0 int, zero []uint64) {
	k := c.K
	iy0, ix0 := oy*c.Stride-c.Pad, ox*c.Stride-c.Pad
	kyLo, kyHi := clampTaps(iy0, k, inH)
	kxLo, kxHi := clampTaps(ix0, k, inW)
	if kxLo == kxHi {
		kyHi = kyLo // no tap lands inside the input: every output is its bias
	}
	outPlane := outH * outW
	at := oy*outW + ox
	last := len(zero) - 1
	for g := 0; g <= last; g += 4 {
		g1, g2, g3 := min(g+1, last), min(g+2, last), min(g+3, last)
		oc, oc1, oc2, oc3 := oc0+g, oc0+g1, oc0+g2, oc0+g3
		wa, wb, wc, wd := c.W[oc], c.W[oc1], c.W[oc2], c.W[oc3]
		a0, a1, a2, a3 := c.B[oc], c.B[oc1], c.B[oc2], c.B[oc3]
		// Empty unless InC <= 64: one pass of the loop below.
		skip := zero[g] & zero[g1] & zero[g2] & zero[g3]
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

// forwardAtSSE2 is forwardAtGo for the filters of one block: panelSSE2
// computes all sixteen lanes at one position over the block's panel and
// biases (convPack), on the taps forwardAtGo's clamps keep and the input
// channels not every filter of the block skips, and the block's lanes are
// stored.
//
//sieve:noalloc convolution inner loop
func (c *Conv2D) forwardAtSSE2(in []float32, inH, inW int, out []float32, outH, outW, oy, ox, oc0 int, zero []uint64, panel []float32, bias *[convBlock]float32) {
	skip := ^uint64(0)
	for _, m := range zero {
		skip &= m
	}
	run := ^uint64(0) >> uint(64-c.InC) &^ skip
	k := c.K
	iy0, ix0 := oy*c.Stride-c.Pad, ox*c.Stride-c.Pad
	kyLo, kyHi := clampTaps(iy0, k, inH)
	kxLo, kxHi := clampTaps(ix0, k, inW)
	sums := *bias
	if kyLo < kyHi && kxLo < kxHi && run != 0 {
		plane := inH * inW
		// x runs from the first tap of channel 0 to one past the last tap
		// of the highest channel in run.
		first := (iy0+kyLo)*inW + ix0 + kxLo
		x := in[first : (bits.Len64(run)-1)*plane+(iy0+kyHi-1)*inW+ix0+kxHi]
		w := panel[(kyLo*k+kxLo)*convBlock:]
		panelSSE2(&w[0], &x[0], &sums, run, plane, inW, k, kyHi-kyLo, kxHi-kxLo)
	}
	outPlane, at := outH*outW, oy*outW+ox
	for j, v := range sums[:len(zero)] {
		out[(oc0+j)*outPlane+at] = v
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

// ForwardBatch implements Layer: it packs the weights for this call, then
// runs every item. ForwardBatchRange keeps its packs in the scratch and
// calls forwardBatch.
func (c *Conv2D) ForwardBatch(in, out *Batch) {
	var p convPack
	c.pack(&p, c.panelFits())
	c.forwardBatch(in, out, &p)
}

// forwardBatch runs every item of in through forwardItem over p, which
// holds c's weights packed.
//
//sieve:noalloc batched forward reuses caller buffers
func (c *Conv2D) forwardBatch(in, out *Batch, p *convPack) {
	if in.C != c.InC {
		panic(fmt.Sprintf("nn: conv %s expects %d channels, got %d", c.Tag, c.InC, in.C))
	}
	if want := c.OutShape(Shape{C: in.C, H: in.H, W: in.W}); out.N != in.N || out.C != want.C || out.H != want.H || out.W != want.W {
		panic(fmt.Sprintf("nn: conv %s output batch is %dx%dx%dx%d, want %dx%s", c.Tag, out.N, out.C, out.H, out.W, in.N, want))
	}
	for i := 0; i < in.N; i++ {
		c.forwardItem(in.Item(i), in.H, in.W, out.Item(i), out.H, out.W, p)
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

// reluInto writes v where v > 0 and +0 elsewhere, NaN and -0 included,
// for every element (out may hold stale data, so zeros are written
// explicitly; out may be in): on amd64 by reluSSE2 up to the last multiple
// of four values, elsewhere by reluGo.
//
//sieve:noalloc activation inner loop
func reluInto(in, out []float32) {
	out = out[:len(in)]
	if n := len(in) &^ 3; haveSSE2 && n > 0 {
		reluSSE2(&in[0], &out[0], n)
		in, out = in[n:], out[n:]
	}
	reluGo(in, out)
}

// reluGo is the Go kernel of reluInto. v > 0 is the bit patterns 1 through
// 0x7f800000 (+Inf), so one unsigned compare picks them without a branch on
// the data's sign.
//
//sieve:noalloc activation inner loop
func reluGo(in, out []float32) {
	out = out[:len(in)]
	for i, v := range in {
		b := math.Float32bits(v)
		if b-1 >= 0x7f800000 {
			b = 0
		}
		out[i] = math.Float32frombits(b)
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
