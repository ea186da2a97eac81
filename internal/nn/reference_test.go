package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"sieve/internal/frame"
)

// referenceConvItem is the convolution kernel as it stood before the
// interior/border kernels replaced it (a seven-deep loop testing every tap
// against the input bounds), kept verbatim as the oracle: the shipped kernel
// must return the same bits for every input. The explicit float32() on the
// product is the one edit — it is what the old expression computed on amd64
// and keeps the oracle itself from fusing on targets that can.
func referenceConvItem(c *Conv2D, in []float32, inH, inW int, out []float32, outH, outW int) {
	for oc := 0; oc < c.OutC; oc++ {
		bias := c.B[oc]
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*c.Stride - c.Pad
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*c.Stride - c.Pad
				acc := bias
				for ic := 0; ic < c.InC; ic++ {
					w := c.W[oc][ic]
					for ky := 0; ky < c.K; ky++ {
						y := iy0 + ky
						if y < 0 || y >= inH {
							continue
						}
						rowBase := (ic*inH + y) * inW
						kBase := ky * c.K
						for kx := 0; kx < c.K; kx++ {
							x := ix0 + kx
							if x < 0 || x >= inW {
								continue
							}
							acc += float32(w[kBase+kx] * in[rowBase+x])
						}
					}
				}
				out[(oc*outH+oy)*outW+ox] = acc
			}
		}
	}
}

// firstBitDiff returns the first index at which got and want differ in
// their bits, or -1. A NaN matches any NaN: which payload arithmetic gives
// a NaN is not something either kernel controls.
func firstBitDiff(got, want []float32) int {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

// randomConv builds a conv with deterministic pseudo-random weights and
// biases of mixed sign and magnitude.
func randomConv(inC, outC, k, stride, pad int, seed uint64) *Conv2D {
	c := NewConv2D(fmt.Sprintf("k%ds%dp%d", k, stride, pad), inC, outC, k, stride, pad)
	rng := trainRNG(seed)
	for o := range c.W {
		for i := range c.W[o] {
			for t := range c.W[o][i] {
				c.W[o][i][t] = float32(int64(rng.next()%2001)-1000) / 257
			}
		}
		c.B[o] = float32(int64(rng.next()%201)-100) / 16
	}
	return c
}

// randomActivations fills data with values of mixed sign; with special set,
// a sprinkling of -0, NaN and ±Inf.
func randomActivations(data []float32, seed uint64, special bool) {
	rng := trainRNG(seed)
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), 0}
	for i := range data {
		r := rng.next()
		if special && r%11 == 0 {
			data[i] = specials[(r/11)%uint64(len(specials))]
			continue
		}
		data[i] = float32(int64(r%4001)-2000) / 129
	}
}

// checkConvAgainstReference runs c over in through the shipped kernel and
// the oracle and fails on the first differing bit; then through each
// kernel on its own (convKernelRoutes), which must match the oracle too.
func checkConvAgainstReference(t testing.TB, c *Conv2D, in *Batch) {
	t.Helper()
	s := c.OutShape(Shape{C: in.C, H: in.H, W: in.W})
	got, want := NewBatch(1, s.C, s.H, s.W), NewBatch(1, s.C, s.H, s.W)
	// Poison both outputs: both kernels must write every element.
	for i := range want.Data {
		got.Data[i], want.Data[i] = float32(math.NaN()), float32(math.NaN())
	}
	c.ForwardBatch(in, got)
	referenceConvItem(c, in.Data, in.H, in.W, want.Data, want.H, want.W)
	checkConvOutput(t, c, in, "ForwardBatch", got, want.Data)
	for _, r := range convKernelRoutes(c, in) {
		for i := range got.Data {
			got.Data[i] = float32(math.NaN())
		}
		r.run(got.Data)
		checkConvOutput(t, c, in, r.name, got, want.Data)
	}
}

// checkConvOutput fails on the first bit at which got differs from want.
func checkConvOutput(t testing.TB, c *Conv2D, in *Batch, route string, got *Batch, want []float32) {
	t.Helper()
	if i := firstBitDiff(got.Data, want); i >= 0 {
		plane := got.H * got.W
		t.Fatalf("conv %s (%d→%d filters) in %dx%dx%d, %s: output (oc %d, oy %d, ox %d) = %v (%#08x), reference %v (%#08x)",
			c.Tag, c.InC, c.OutC, in.C, in.H, in.W, route, i/plane, i%plane/got.W, i%got.W,
			got.Data[i], math.Float32bits(got.Data[i]), want[i], math.Float32bits(want[i]))
	}
}

// convRoute is one way to compute every output of one item.
type convRoute struct {
	name string
	run  func(out []float32)
}

// convKernelRoutes returns the ways checkConvAgainstReference also runs c
// over the one item of in, each calling kernels directly: the Go kernels
// as every other GOARCH runs them, forwardAtGo at every position, and on
// amd64, for a layer within maxPanelTaps, the SSE2 kernels as forwardItem
// runs them, panelSSE2 at every position, and — for a 3×3 at stride 1 or
// 2 with four interior columns — interiorSSE2 on the interior of every
// block, dense ones included, with panelSSE2 on the rest.
func convKernelRoutes(c *Conv2D, in *Batch) []convRoute {
	s := c.OutShape(Shape{C: in.C, H: in.H, W: in.W})
	oyLo, oyHi := interiorRange(in.H, s.H, c.K, c.Stride, c.Pad)
	oxLo, oxHi := interiorRange(in.W, s.W, c.K, c.Stride, c.Pad)
	var panel []float32
	if taps := c.InC * c.K * c.K; haveSSE2 && c.InC <= 64 && taps <= maxPanelTaps {
		panel = make([]float32, taps*convBlock)
	}
	// blocks runs at once per block, after the block's loadBlock, with the
	// zero pairs dropped over a non-finite input as forwardBlocks drops them.
	blocks := func(at func(out []float32, oc0 int, zero []uint64, bias *[convBlock]float32)) func([]float32) {
		return func(out []float32) {
			finite := allFinite(in.Data)
			var zero [convBlock]uint64
			var bias [convBlock]float32
			for oc0 := 0; oc0 < c.OutC; oc0 += convBlock {
				blk := zero[:min(convBlock, c.OutC-oc0)]
				c.loadBlock(oc0, blk, panel, &bias)
				if !finite {
					clear(blk)
				}
				at(out, oc0, blk, &bias)
			}
		}
	}
	// border runs forwardAtSSE2 (sse) or forwardAtGo on every position
	// outside the interior given — on all of them when it is empty.
	border := func(out []float32, oc0 int, zero []uint64, bias *[convBlock]float32, sse bool, oyLo, oyHi, oxLo, oxHi int) {
		for oy := 0; oy < s.H; oy++ {
			for ox := 0; ox < s.W; ox++ {
				switch {
				case oy >= oyLo && oy < oyHi && ox >= oxLo && ox < oxHi:
				case sse:
					c.forwardAtSSE2(in.Data, in.H, in.W, out, s.H, s.W, oy, ox, oc0, zero, panel, bias)
				default:
					c.forwardAtGo(in.Data, in.H, in.W, out, s.H, s.W, oy, ox, oc0, zero)
				}
			}
		}
	}
	routes := []convRoute{
		{"Go kernels", func(out []float32) { c.forwardBlocks(in.Data, in.H, in.W, out, s.H, s.W, nil) }},
		{"forwardAtGo everywhere", blocks(func(out []float32, oc0 int, zero []uint64, bias *[convBlock]float32) {
			border(out, oc0, zero, bias, false, 0, 0, 0, 0)
		})},
	}
	if panel == nil {
		return routes
	}
	routes = append(routes,
		convRoute{"SSE2 kernels", func(out []float32) { c.forwardBlocks(in.Data, in.H, in.W, out, s.H, s.W, panel) }},
		convRoute{"panelSSE2 everywhere", blocks(func(out []float32, oc0 int, zero []uint64, bias *[convBlock]float32) {
			border(out, oc0, zero, bias, true, 0, 0, 0, 0)
		})})
	if c.K == 3 && (c.Stride == 1 || c.Stride == 2) && oxHi-oxLo >= 4 {
		routes = append(routes, convRoute{"interiorSSE2 and panelSSE2", blocks(func(out []float32, oc0 int, zero []uint64, bias *[convBlock]float32) {
			c.interior3x3SSE2(in.Data, in.H, in.W, out, s.H, s.W, oyLo, oyHi, oxLo, oxHi, oc0, zero)
			border(out, oc0, zero, bias, true, oyLo, oyHi, oxLo, oxHi)
		})})
	}
	return routes
}

// zeroPairs sets every weight of each (oc, ic) pair that keep rejects to a
// zero taken in turn from zeros (+0, -0, or both alternating).
func zeroPairs(c *Conv2D, keep func(oc, ic int) bool, zeros ...float32) {
	n := 0
	for o := range c.W {
		for i := range c.W[o] {
			if keep(o, i) {
				continue
			}
			for t := range c.W[o][i] {
				c.W[o][i][t] = zeros[n%len(zeros)]
				n++
			}
		}
	}
}

// sparsePatterns are the zero-pair layouts the oracle sweeps: the shipped
// backbone's (each filter reads one input channel), a pseudo-random one
// picked by the bits of a byte, and a layer of zero filters.
func sparsePatterns(seed uint64) []func(oc, ic int) bool {
	bits := byte(seed*37 + 11)
	return []func(oc, ic int) bool{
		func(oc, ic int) bool { return ic == oc%3 },
		func(oc, ic int) bool { return bits>>uint((oc*3+ic)%8)&1 != 0 },
		func(oc, ic int) bool { return false },
	}
}

// TestConvMatchesReference sweeps kernel size × stride × padding × plane
// size — including planes smaller than the kernel, one-pixel planes, and
// padding at least as wide as the kernel — with ordinary inputs and with
// inputs carrying -0, NaN and ±Inf (a skipped padding tap must stay
// skipped: 0*Inf would turn an output into NaN). Each case runs once with
// dense weights and once with (oc, ic) pairs zeroed — in +0, -0 or both,
// sometimes under a -0 bias — so the kernel's zero-pair skip is held to the
// dense oracle on the inputs where it may run and on those where it may not.
func TestConvMatchesReference(t *testing.T) {
	sizes := [][2]int{{1, 1}, {2, 3}, {3, 3}, {4, 7}, {6, 6}, {7, 5}, {12, 12}, {13, 9}, {24, 24}}
	negZero := float32(math.Copysign(0, -1))
	zeroSets := [][]float32{{0}, {negZero}, {0, negZero}}
	seed := uint64(1)
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 2} {
				for _, hw := range sizes {
					if hw[0]+2*pad < k || hw[1]+2*pad < k {
						continue // no output at all
					}
					for _, special := range []bool{false, true} {
						seed++
						c := randomConv(3, 5, k, stride, pad, seed)
						in := NewBatch(1, 3, hw[0], hw[1])
						randomActivations(in.Data, seed*7919, special)
						checkConvAgainstReference(t, c, in)

						zeroPairs(c, sparsePatterns(seed)[seed%3], zeroSets[seed/3%3]...)
						if seed%4 == 0 {
							c.B[seed/4%5] = negZero
						}
						checkConvAgainstReference(t, c, in)
					}
				}
			}
		}
	}
}

// TestConvBlocksMatchReference is TestConvMatchesReference across blocks
// of sixteen filters: one lane, one block exactly, a ragged second and
// third block, 64 input channels (the panel's limit, head1's width) and 65
// (past it), and a 5×5 past the panel's taps — each dense, and with the
// backbone's zero pairs (filter oc reads channel oc%inC), over ordinary
// inputs and over inputs carrying -0, NaN and ±Inf.
func TestConvBlocksMatchReference(t *testing.T) {
	seed := uint64(500)
	for _, ch := range [][2]int{{1, 1}, {3, 16}, {64, 33}, {65, 17}, {24, 40}} {
		for _, k := range []int{1, 3, 5} {
			for _, stride := range []int{1, 2} {
				for _, hw := range [][2]int{{6, 6}, {9, 14}} {
					for _, special := range []bool{false, true} {
						seed++
						c := randomConv(ch[0], ch[1], k, stride, k/2, seed)
						in := NewBatch(1, ch[0], hw[0], hw[1])
						randomActivations(in.Data, seed*7919, special)
						checkConvAgainstReference(t, c, in)

						inC := ch[0]
						zeroPairs(c, func(oc, ic int) bool { return ic == oc%inC }, 0)
						checkConvAgainstReference(t, c, in)
					}
				}
			}
		}
	}
}

// TestAllFiniteMatchesReference holds allFinite (allFiniteSSE2 on amd64)
// and allFiniteGo to math.IsNaN/IsInf on every length up to 40 with one
// value at each position set to each of the bit patterns at the boundary:
// the largest finite magnitude and the smallest non-finite one of each
// sign, NaNs with the lowest and highest payload, and a subnormal.
func TestAllFiniteMatchesReference(t *testing.T) {
	bits := []uint32{0x7f7fffff, 0xff7fffff, 0x7f800000, 0xff800000, 0x7f800001, 0xffffffff, 0x00000001, 0x80000000}
	for n := 0; n <= 40; n++ {
		v := make([]float32, n)
		randomActivations(v, uint64(n), false)
		for at := 0; at < n; at++ {
			for _, b := range bits {
				orig := v[at]
				v[at] = math.Float32frombits(b)
				want := !math.IsNaN(float64(v[at])) && !math.IsInf(float64(v[at]), 0)
				if got, goK := allFinite(v), allFiniteGo(v); got != want || goK != want {
					t.Fatalf("n %d, %#08x at %d: allFinite %v, allFiniteGo %v, want %v", n, b, at, got, goK, want)
				}
				v[at] = orig
			}
		}
	}
}

// TestConvSkipsPaddingTaps pins the two cases where adding a padding tap as
// w*0 — instead of skipping it — would show: a sum that is still -0 (adding
// +0 makes it +0), and a non-finite weight over the padding (Inf*0 is NaN).
func TestConvSkipsPaddingTaps(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, k := range []int{3, 5} {
		for _, stride := range []int{1, 2} {
			// Bias -0, weights +0, inputs negative: every product is -0 and
			// every output must come out -0.
			zeros := NewConv2D("zeros", 2, 5, k, stride, k/2)
			for o := range zeros.B {
				zeros.B[o] = negZero
			}
			in := NewBatch(1, 2, 6, 6)
			for i := range in.Data {
				in.Data[i] = -1 - float32(i)
			}
			checkConvAgainstReference(t, zeros, in)
			for i, v := range forwardLayer(zeros, in).Data {
				if math.Float32bits(v) != math.Float32bits(negZero) {
					t.Fatalf("k%d s%d: output %d = %v (%#08x), want -0", k, stride, i, v, math.Float32bits(v))
				}
			}
			// Inf on the kernel's rim, finite inputs: only border outputs
			// have rim taps in the padding, and they must stay finite or
			// ±Inf exactly as the reference has them — never NaN.
			rim := randomConv(2, 5, k, stride, k/2, 99)
			for o := range rim.W {
				for i := range rim.W[o] {
					rim.W[o][i][0] = float32(math.Inf(1))
					rim.W[o][i][k*k-1] = float32(math.Inf(1))
				}
			}
			for i := range in.Data {
				in.Data[i] = 1 + float32(i%5)
			}
			checkConvAgainstReference(t, rim, in)
			if v := forwardLayer(rim, in).Data[0]; v != v {
				t.Fatalf("k%d s%d: corner output is NaN: a padding tap was multiplied, not skipped", k, stride)
			}
		}
	}
}

// TestConvZeroPairSkipIsExact pins each boundary of the zero-pair skip, in
// the interior sweep and on the border, for 3×3 (both paths), 5×5 and 1×1
// (border path only) kernels over two four-filter groups:
//   - a -0 bias: the dense sum -0 + 0*x is +0, so a skip would leave -0;
//   - a NaN or ±Inf under a zero pair: 0*NaN and 0*Inf are NaN;
//   - one non-zero tap, at each position, makes the pair non-zero.
func TestConvZeroPairSkipIsExact(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	positive := func(in *Batch) {
		for i := range in.Data {
			in.Data[i] = 1 + float32(i%7)/8
		}
	}
	for _, g := range []struct{ k, stride, pad int }{{3, 1, 1}, {3, 2, 1}, {5, 1, 2}, {1, 1, 0}} {
		name := fmt.Sprintf("k%ds%dp%d", g.k, g.stride, g.pad)
		in := NewBatch(1, 3, 8, 8)
		positive(in)

		// Zero filters under a -0 bias, over positive inputs: the dense sum
		// is -0 + z*x, so +0 for +0 weights (where a skip would leave -0)
		// and -0 for -0 weights. Filter 3 shares the first group with -0
		// filters; the second group (filters 4, 5) may be skipped whole.
		for _, z := range []float32{0, negZero} {
			c := NewConv2D(name, 3, 6, g.k, g.stride, g.pad)
			zeroPairs(c, func(oc, ic int) bool { return false }, z)
			for o := range c.B {
				c.B[o] = negZero
			}
			c.B[3], c.B[4], c.B[5] = 0.5, 0.5, 0.5
			checkConvAgainstReference(t, c, in)
			out := forwardLayer(c, in)
			plane := out.H * out.W
			for i, v := range out.Data[:3*plane] {
				if math.Float32bits(v) != math.Float32bits(z) {
					t.Fatalf("%s, zero weights %v, bias -0: output %d = %v (%#08x), want %v", name, z, i, v, math.Float32bits(v), z)
				}
			}
		}

		// The backbone's layout (filter oc reads channel oc%3 only) with one
		// non-finite value on channel 1, at an interior position and at the
		// corner: every output of filter 0 whose window holds it is NaN.
		for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			for _, at := range [][2]int{{4, 4}, {0, 0}} {
				c := randomConv(3, 6, g.k, g.stride, g.pad, 5)
				zeroPairs(c, func(oc, ic int) bool { return ic == oc%3 }, 0)
				positive(in)
				in.Data[(1*in.H+at[0])*in.W+at[1]] = bad
				checkConvAgainstReference(t, c, in)
				out := forwardLayer(c, in)
				for oy := 0; oy < out.H; oy++ {
					for ox := 0; ox < out.W; ox++ {
						dy, dx := at[0]-(oy*g.stride-g.pad), at[1]-(ox*g.stride-g.pad)
						if dy < 0 || dy >= g.k || dx < 0 || dx >= g.k {
							continue
						}
						if v := out.Data[oy*out.W+ox]; v == v {
							t.Fatalf("%s: %v at input (%d,%d) under a zero pair gave filter 0 output (%d,%d) = %v, want NaN",
								name, bad, at[0], at[1], oy, ox, v)
						}
					}
				}
			}
		}
		positive(in)

		// One non-zero tap in an otherwise zero layer, at each position:
		// the pair is no longer zero and its filter's outputs move off the
		// bias.
		for tap := 0; tap < g.k*g.k; tap++ {
			for _, pair := range [][2]int{{0, 0}, {5, 2}} {
				c := NewConv2D(name, 3, 6, g.k, g.stride, g.pad)
				for o := range c.B {
					c.B[o] = 0.5
				}
				c.W[pair[0]][pair[1]][tap] = 1.5
				checkConvAgainstReference(t, c, in)
				out := forwardLayer(c, in)
				plane := out.H * out.W
				moved := 0
				for _, v := range out.Data[pair[0]*plane : (pair[0]+1)*plane] {
					if v != 0.5 {
						moved++
					}
				}
				if moved == 0 {
					t.Fatalf("%s: weight at tap %d of pair %v never reached an output", name, tap, pair)
				}
			}
		}
	}
}

// TestYOLiteLayersMatchReference checks every convolution of the shipped
// detector, on the activations the layers before it produce, at the bench's
// 96×96 input and the paper's 300×300.
func TestYOLiteLayersMatchReference(t *testing.T) {
	for _, size := range []int{96, 300} {
		d := randomHeadDetector([]string{"car", "bus", "truck"}, size, 77)
		cur := NewBatch(1, 3, size, size)
		fromYUVInto(cur.Data, noiseFrame(320, 240, uint64(size)), size)
		convs := 0
		for _, l := range d.net.Layers {
			if c, ok := l.(*Conv2D); ok {
				checkConvAgainstReference(t, c, cur)
				convs++
			}
			cur = forwardLayer(l, cur)
		}
		if convs != 6 {
			t.Fatalf("size %d: checked %d convolutions, want 6", size, convs)
		}
	}
}

// FuzzConvMatchesReference lets the fuzzer pick the geometry (channels,
// kernel size, stride, padding, plane size) from the first bytes of the
// corpus entry — up to 65 input channels, one past the panel's 64, and up
// to 40 filters, a ragged third block of sixteen — which (oc, ic) pairs to zero from the next — pair p is
// zeroed when bit p%8 is set, since random bit patterns almost never make
// K×K zeros — and the weights, biases and input from the rest, as raw
// float32 bit patterns, so -0, subnormals, NaN and ±Inf all turn up. A
// zeroed weight keeps the sign of the value it replaces.
func FuzzConvMatchesReference(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0, 0, 3, 3, 0, 0, 0, 128, 63})
	f.Add([]byte{2, 3, 3, 1, 1, 6, 6, 0, 0, 0, 128, 63, 0, 0, 128, 127, 0, 0, 0, 128, 0, 0, 192, 127})
	f.Add([]byte{3, 4, 3, 2, 1, 12, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 2, 5, 3, 2, 2, 7, 0, 0, 0, 128, 255, 0, 0, 0, 0})
	f.Add([]byte{2, 5, 1, 1, 2, 4, 4, 0, 9, 9, 9, 9})
	f.Add([]byte{2, 5, 1, 0, 1, 8, 8, 0xee, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 160, 63})
	f.Add([]byte{2, 4, 1, 1, 1, 12, 7, 0x7d, 0, 0, 128, 63, 0, 0, 0, 128, 0, 0, 192, 127})
	f.Add([]byte{1, 3, 2, 0, 2, 6, 6, 0xff, 0, 0, 0, 128, 0, 0, 0, 64})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 1, 0x03, 0, 0, 128, 63, 0, 0, 128, 63, 0, 0, 128, 63, 0, 0, 192, 127})
	// Past one block of filters: head1's shape (64 channels, 3×3 stride 1,
	// two blocks and a ragged third), conv4's (stride 2, three blocks, a
	// zero pattern every block skips), 65 channels and a 5×5 over 24 (both
	// past the panel: the Go kernels), and a 1×1 over 64.
	f.Add([]byte{63, 32, 1, 0, 1, 6, 6, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 160, 63, 0, 0, 0, 192})
	f.Add([]byte{31, 39, 1, 1, 1, 12, 12, 0x7e, 0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 0, 63, 0, 0, 128, 191})
	f.Add([]byte{64, 17, 1, 0, 1, 5, 7, 0, 0, 0, 128, 63, 0, 0, 0, 191})
	f.Add([]byte{23, 20, 2, 0, 2, 6, 5, 0x11, 0, 0, 128, 63, 0, 0, 0, 128, 0, 0, 64, 64})
	f.Add([]byte{63, 35, 0, 0, 0, 6, 6, 0, 0, 0, 128, 63, 0, 0, 128, 127, 0, 0, 64, 192})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		inC, outC := 1+int(data[0])%65, 1+int(data[1])%40
		k := []int{1, 3, 5}[int(data[2])%3]
		stride, pad := 1+int(data[3])%3, int(data[4])%3
		h, w := 1+int(data[5])%14, 1+int(data[6])%14
		if h+2*pad < k || w+2*pad < k {
			return
		}
		zeroed := data[7]
		// The remaining bytes are consumed four at a time, cyclically.
		vals := data[8:]
		if len(vals) < 4 {
			vals = []byte{0, 0, 128, 63}
		}
		pos := 0
		next := func() float32 {
			if pos+4 > len(vals) {
				pos = 0
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(vals[pos:]))
			pos += 4
			return v
		}
		c := NewConv2D("fuzz", inC, outC, k, stride, pad)
		for o := range c.W {
			for i := range c.W[o] {
				zero := zeroed>>uint((o*inC+i)%8)&1 != 0
				for j := range c.W[o][i] {
					v := next()
					if zero {
						v = math.Float32frombits(math.Float32bits(v) & (1 << 31))
					}
					c.W[o][i][j] = v
				}
			}
			c.B[o] = next()
		}
		in := NewBatch(1, inC, h, w)
		for i := range in.Data {
			in.Data[i] = next()
		}
		checkConvAgainstReference(t, c, in)
	})
}

// TestConvForwardBatchRejectsMisshapedOutput: a destination batch that is
// not OutShape(in) at in.N items is a caller bug the layer must name, not
// write garbage (or past an item) into.
func TestConvForwardBatchRejectsMisshapedOutput(t *testing.T) {
	c := randomConv(2, 3, 3, 2, 1, 5)
	in := NewBatch(2, 2, 8, 8)
	for _, out := range []*Batch{
		NewBatch(1, 3, 4, 4), // too few items
		NewBatch(2, 3, 8, 8), // the input's plane size
		NewBatch(2, 2, 4, 4), // the input's channel count
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ForwardBatch accepted a %dx%dx%dx%d output for a 2x3x4x4 result", out.N, out.C, out.H, out.W)
				}
			}()
			c.ForwardBatch(in, out)
		}()
	}
	c.ForwardBatch(in, NewBatch(2, 3, 4, 4)) // the right shape is accepted
}

// layerAtATime is the forward traversal without the item-by-item ping-pong:
// each layer of [from, to) runs its ForwardBatch over the whole batch into a
// fresh batch. It is the oracle for ForwardBatchRange's traversal.
func layerAtATime(net *Network, in *Batch, from, to int) *Batch {
	cur := in
	for _, l := range net.Layers[from:to] {
		cur = forwardLayer(l, cur)
	}
	return cur
}

// TestForwardBatchRangeMatchesForwardRange pins the batch traversal: at
// every [from, to) — cuts between a convolution and its ReLU included — and
// at batch sizes 0, 1 and several, ForwardBatchRange returns exactly what
// running the layers one at a time over the whole batch does, leaves its
// input untouched, and returns the input itself for an empty range.
func TestForwardBatchRangeMatchesForwardRange(t *testing.T) {
	d := randomHeadDetector([]string{"car", "bus"}, 48, 13)
	net := d.Network()
	nLayers := len(net.Layers)
	var scratch BatchScratch
	for from := 0; from <= nLayers; from++ {
		// The input to layer `from` is the activation shape there.
		shape := net.Input
		for _, l := range net.Layers[:from] {
			shape = l.OutShape(shape)
		}
		for _, n := range []int{0, 1, 5} {
			in := NewBatch(n, shape.C, shape.H, shape.W)
			randomActivations(in.Data, uint64(from*31+n), false)
			pristine := append([]float32(nil), in.Data...)
			for to := from; to <= nLayers; to++ {
				got := net.ForwardBatchRange(in, &scratch, from, to)
				if to == from {
					if got != in {
						t.Fatalf("[%d,%d): empty range did not return its input", from, to)
					}
					continue
				}
				want := layerAtATime(net, in, from, to)
				if got.N != want.N || got.C != want.C || got.H != want.H || got.W != want.W {
					t.Fatalf("[%d,%d) n=%d: shape %dx%dx%dx%d, want %dx%dx%dx%d",
						from, to, n, got.N, got.C, got.H, got.W, want.N, want.C, want.H, want.W)
				}
				if j := firstBitDiff(got.Data, want.Data); j >= 0 {
					t.Fatalf("[%d,%d) n=%d item %d element %d: ForwardBatchRange %v, layer at a time %v",
						from, to, n, j/got.ItemLen(), j%got.ItemLen(), got.Data[j], want.Data[j])
				}
				if j := firstBitDiff(in.Data, pristine); j >= 0 {
					t.Fatalf("[%d,%d) n=%d: the input batch was written at element %d", from, to, n, j)
				}
			}
		}
	}
}

// bilinearSample is one sample of frame.Resize(src, w, h) at (x, y),
// computed on its own with Resize's expressions (Resize merely hoists the
// row-invariant terms); internal/frame's tests pin it to Resize.
func bilinearSample(src *frame.Plane, w, h, x, y int) byte {
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
	return frame.Clamp255(top + float64((bot-top)*fy))
}

// referenceFromYUVInto is the input conversion as it stood before the column
// terms were hoisted: one bilinearSample call per tensor value.
func referenceFromYUVInto(data []float32, f *frame.YUV, size int) {
	rw := (size + 1) &^ 1
	plane := size * size
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			data[y*size+x] = float32(bilinearSample(f.Y, rw, rw, x, y)) / 255
		}
	}
	half := rw / 2
	cb, cr := data[plane:2*plane], data[2*plane:3*plane]
	for cy := 0; 2*cy < size; cy++ {
		for cx := 0; 2*cx < size; cx++ {
			vb := float32(bilinearSample(f.Cb, half, half, cx, cy)) / 255
			vr := float32(bilinearSample(f.Cr, half, half, cx, cy)) / 255
			for dy := 0; dy < 2 && 2*cy+dy < size; dy++ {
				for dx := 0; dx < 2 && 2*cx+dx < size; dx++ {
					cb[(2*cy+dy)*size+2*cx+dx] = vb
					cr[(2*cy+dy)*size+2*cx+dx] = vr
				}
			}
		}
	}
}

// TestFromYUVIntoMatchesReference checks the hoisted conversion against both
// of its ancestors — the per-sample one above and the original
// resize-the-frame-then-index path — on odd and even sizes, sizes past the
// column block (64 samples) and its multiples, up- and down-scaling, and
// into a buffer holding stale values.
func TestFromYUVIntoMatchesReference(t *testing.T) {
	frames := []*frame.YUV{noiseFrame(128, 80, 1), noiseFrame(38, 22, 2), noiseFrame(640, 400, 3)}
	for _, size := range []int{1, 2, 15, 16, 33, 64, 65, 96, 127, 128, 129, 131, 300} {
		got := make([]float32, 3*size*size)
		want := make([]float32, len(got))
		for fi, f := range frames {
			for i := range got {
				got[i] = -7 // every element must be written
			}
			fromYUVInto(got, f, size)
			referenceFromYUVInto(want, f, size)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("frame %d size %d: element %d (channel %d, y %d, x %d) = %v, per-sample reference %v",
					fi, size, i, i/(size*size), i%(size*size)/size, i%size, got[i], want[i])
			}
			r := frame.ResizeYUV(f, size, size)
			for y := 0; y < size; y++ {
				for x := 0; x < size; x++ {
					for ch, v := range []byte{r.Y.At(x, y), r.Cb.At(x/2, y/2), r.Cr.At(x/2, y/2)} {
						if g := got[(ch*size+y)*size+x]; g != float32(v)/255 {
							t.Fatalf("frame %d size %d: channel %d (%d,%d) = %v, resized frame holds %v",
								fi, size, ch, x, y, g, float32(v)/255)
						}
					}
				}
			}
		}
	}
}

// BenchmarkFromYUV times the detector's input conversion at the benchmark's
// geometry, a 320×240 frame into a 96×96 item, one plane per op: /luma the
// Y plane (cell 1), /chroma the Cb plane (cell 2, upsampled 2×2). allocs/op
// must read 0.
func BenchmarkFromYUV(b *testing.B) {
	const size = 96
	f := noiseFrame(320, 240, 60)
	data := make([]float32, size*size)
	b.Run("luma", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			resampleInto(data, size, f.Y, size, 1)
		}
	})
	b.Run("chroma", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			resampleInto(data, size, f.Cb, size/2, 2)
		}
	})
}

// BenchmarkConvLayers times each convolution of the detector on its own at
// the benchmark's 96×96 geometry and reports ns per multiply-accumulate, so
// a forward-pass number can be traced to the layer that moved: /kernel is
// what forwardItem runs (the SSE2 kernels on amd64), /go the Go kernels. The
// big planes (conv1, conv2) are nearly all interior; conv4 and head1
// produce 6×6 planes where 11 and 20 of 36 outputs touch padding. ns/MAC
// divides by the dense count FLOPs()/2, zero pairs included, so on the
// backbone it falls with the zero-pair skip — each backbone filter reads
// one input channel, so 2 of conv1's 3 pairs per filter are zero and 31 of
// conv4's 32 — while the head layers are dense.
func BenchmarkConvLayers(b *testing.B) {
	d := randomHeadDetector([]string{"car", "bus", "truck"}, 96, 11)
	cur := NewBatch(1, 3, 96, 96)
	fromYUVInto(cur.Data, noiseFrame(320, 240, 60), 96)
	for _, l := range d.net.Layers {
		if c, ok := l.(*Conv2D); ok {
			in := cur
			shape := c.OutShape(Shape{C: in.C, H: in.H, W: in.W})
			out := make([]float32, shape.Elems())
			macs := c.FLOPs(Shape{C: in.C, H: in.H, W: in.W}) / 2
			b.Run(c.Tag+"/kernel", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					c.forwardItem(in.Data, in.H, in.W, out, shape.H, shape.W)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*macs), "ns/MAC")
			})
			b.Run(c.Tag+"/go", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					c.forwardBlocks(in.Data, in.H, in.W, out, shape.H, shape.W, nil)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*macs), "ns/MAC")
			})
		}
		cur = forwardLayer(l, cur)
	}
}
