package codec

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"sieve/internal/bitstream"
	"sieve/internal/frame"
	"sieve/internal/synth"
)

// The cost analyzer's two pixel kernels — the 2×2 downsample and an 8×8
// block's DC cost — run as SSE2 kernels (analyze_amd64.s) on amd64 and as
// the Go kernels elsewhere, and the encoder writes each AC pair with one
// joined write. Only one golden stream lets the analyzer's costs reach the
// bytes, so these tests pin the analyzer by value: the half-res plane and
// the Cost of every frame must equal those of the textbook loops below, and
// the joined writes must equal the WriteUE and WriteSE calls they replace.

// refDownsample2x is the textbook box filter: each output pixel is the
// rounded mean of its 2×2 source block, read through the clamped At.
func refDownsample2x(p *frame.Plane) *frame.Plane {
	w, h := halfDims(p)
	d := frame.NewPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s := int(p.At(2*x, 2*y)) + int(p.At(2*x+1, 2*y)) +
				int(p.At(2*x, 2*y+1)) + int(p.At(2*x+1, 2*y+1))
			d.Set(x, y, byte((s+2)/4))
		}
	}
	return d
}

// refBlockDCCost is the textbook DC cost of the block of p at (bx, by),
// clipped to the plane: the summed distance of each pixel from the block's
// rounded mean.
func refBlockDCCost(p *frame.Plane, bx, by int) int64 {
	w, h := min(analysisBlock, p.W-bx), min(analysisBlock, p.H-by)
	sum := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sum += int(p.At(bx+x, by+y))
		}
	}
	mean := (sum + w*h/2) / (w * h)
	var cost int64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			cost += int64(absInt(int(p.At(bx+x, by+y)) - mean))
		}
	}
	return cost
}

// refIntraCost is intraCost over refBlockDCCost, floor included.
func refIntraCost(p *frame.Plane) int64 {
	var total int64
	for by := 0; by < p.H; by += analysisBlock {
		for bx := 0; bx < p.W; bx += analysisBlock {
			total += refBlockDCCost(p, bx, by)
		}
	}
	return max(total, int64(p.W*p.H/4))
}

// refAnalyzer is CostAnalyzer built from the textbook loops over plain
// planes: refDownsample2x, refIntraCost and refInterCost.
type refAnalyzer struct{ prev *frame.Plane }

func (r *refAnalyzer) analyze(f *frame.YUV) (*frame.Plane, Cost) {
	half := refDownsample2x(f.Y)
	c := Cost{Intra: refIntraCost(half)}
	c.Inter = c.Intra
	if r.prev != nil && r.prev.W == half.W && r.prev.H == half.H {
		c.Inter = refInterCost(half, r.prev)
	}
	r.prev = half
	return half, c
}

// checkAnalyze feeds frames to a CostAnalyzer and to the reference and
// requires, frame by frame, the same half-res plane and the same Cost.
func checkAnalyze(t testing.TB, frames []*frame.YUV) {
	t.Helper()
	an := NewCostAnalyzer()
	var ref refAnalyzer
	for i, f := range frames {
		got := an.Analyze(f)
		half, want := ref.analyze(f)
		if !an.prev.Equal(half) {
			t.Fatalf("%dx%d frame %d: half-res plane differs from the reference", f.Y.W, f.Y.H, i)
		}
		if got != want {
			t.Fatalf("%dx%d frame %d: Cost %+v, reference %+v", f.Y.W, f.Y.H, i, got, want)
		}
	}
}

// quietFrames returns the first n frames of the 600×400 Jackson Square
// scene bench/'s edge_quiet encodes.
func quietFrames(t testing.TB, n int) []*frame.YUV {
	t.Helper()
	v, err := synth.Preset(synth.JacksonSquare, synth.PresetOpts{Seconds: 2, FPS: 5})
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*frame.YUV, min(n, v.NumFrames()))
	for i := range frames {
		frames[i] = v.Frame(i)
	}
	return frames
}

// randomFrames returns n w×h frames of random luma.
func randomFrames(rng *rand.Rand, w, h, n int) []*frame.YUV {
	frames := make([]*frame.YUV, n)
	for i := range frames {
		frames[i] = frame.NewYUV(w, h)
		rng.Read(frames[i].Y.Pix)
	}
	return frames
}

// TestAnalyzeMatchesReference runs checkAnalyze on the quiet scene at
// 600×400 (and requires every EncodedFrame's IntraCost and InterCost, from
// an encoder at a scenecut that reads them, to equal the reference's), on random frames of odd sizes, of planes one
// pixel wide or high, and of half-res widths on both sides of 16 (the SSE2
// row's width) and of multiples of 8 (the block's); then holds each kernel
// — dispatcher, Go kernel and, on amd64, SSE2 — to the textbook loop on
// random and extreme pixels at random strides.
func TestAnalyzeMatchesReference(t *testing.T) {
	quiet := quietFrames(t, 6)
	checkAnalyze(t, quiet)
	enc, err := NewEncoder(Params{Width: 600, Height: 400, GOPSize: 25, Scenecut: 40})
	if err != nil {
		t.Fatal(err)
	}
	var ref refAnalyzer
	for i, f := range quiet {
		ef, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		_, want := ref.analyze(f)
		if ef.IntraCost != want.Intra || ef.InterCost != want.Inter {
			t.Fatalf("quiet frame %d: EncodedFrame costs %d/%d, reference %d/%d",
				i, ef.IntraCost, ef.InterCost, want.Intra, want.Inter)
		}
	}

	rng := rand.New(rand.NewSource(45))
	for _, sz := range [][2]int{
		{601, 401}, {33, 17}, {1, 1}, {1, 40}, {40, 1}, {2, 2}, {3, 3}, {2, 41}, {41, 2},
		{30, 30}, {32, 32}, {34, 34}, {46, 30}, {62, 18}, {64, 16}, {66, 20}, {70, 50}, {97, 23},
	} {
		checkAnalyze(t, randomFrames(rng, sz[0], sz[1], 3))
	}

	for trial := 0; trial < 2000; trial++ {
		w := 1 + rng.Intn(80)
		stride := 2*w + rng.Intn(3)*rng.Intn(20)
		src := make([]byte, stride+2*w)
		switch trial % 4 {
		case 0:
			fillBytes(src, 255)
		case 1:
			for i := range src {
				src[i] = byte(253 + i%3) // sums ≡ 2 (mod 4) among them
			}
		default:
			rng.Read(src)
		}
		checkDownsampleRow(t, src, stride, w)
	}
	for trial := 0; trial < 3000; trial++ {
		stride := analysisBlock + rng.Intn(3)*rng.Intn(40)
		src := make([]byte, 7*stride+analysisBlock)
		switch trial % 5 {
		case 0:
			fillBytes(src, byte(rng.Intn(256)))
		case 1:
			for i := range src {
				src[i] = byte(255 * (i & 1))
			}
		case 2:
			for i := range src {
				src[i] = byte(rng.Intn(2)) // sums near a multiple of 64 ± 32
			}
		default:
			rng.Read(src)
		}
		checkDCCost(t, src, stride)
	}
}

// checkDownsampleRow runs downsampleRow's kernels on the w outputs of the
// two source rows that start at src[0] and src[stride], and requires each
// to equal the textbook rounding. dst is a slice of a larger buffer whose
// bytes after it must stay untouched.
func checkDownsampleRow(t testing.TB, src []byte, stride, w int) {
	t.Helper()
	r0, r1 := src[:2*w], src[stride:][:2*w]
	want := make([]byte, w)
	for x := range want {
		want[x] = byte((int(r0[2*x]) + int(r0[2*x+1]) + int(r1[2*x]) + int(r1[2*x+1]) + 2) / 4)
	}
	kernels := map[string]func(dst []byte){
		"dispatch": func(dst []byte) { downsampleRow(dst, r0, r1) },
		"go":       func(dst []byte) { downsampleRowGo(dst, r0, r1) },
	}
	if haveSSE2 && w >= 16 {
		kernels["sse2"] = func(dst []byte) { downsampleRowSSE2(dst, r0, r1) }
	}
	for name, run := range kernels {
		buf := make([]byte, w+16)
		fillBytes(buf, 0xA5)
		run(buf[:w])
		if !bytes.Equal(buf[:w], want) {
			t.Fatalf("%s downsample of %d outputs: %v, want %v (rows %v / %v)", name, w, buf[:w], want, r0, r1)
		}
		for _, b := range buf[w:] {
			if b != 0xA5 {
				t.Fatalf("%s downsample of %d outputs wrote past the row", name, w)
			}
		}
	}
}

// checkDCCost runs blockDCCost's kernels on the 8×8 block whose rows start
// stride bytes apart at src[0] and requires each to equal refBlockDCCost.
func checkDCCost(t testing.TB, src []byte, stride int) {
	t.Helper()
	p := &frame.Plane{Pix: src[:7*stride+analysisBlock], Stride: stride, W: analysisBlock, H: analysisBlock}
	want := refBlockDCCost(p, 0, 0)
	got := map[string]int{"dispatch": blockDCCost(p, 0, 0), "go": blockDCCostGo(p, 0, 0)}
	if haveSSE2 {
		got["sse2"] = dcCostSSE2(p.Pix, stride)
	}
	for name, c := range got {
		if int64(c) != want {
			t.Fatalf("%s DC cost at stride %d: %d, want %d (block %v)", name, stride, c, want, p.Pix)
		}
	}
}

// FuzzAnalyzeMatchesReference runs checkAnalyze on frames the fuzzer
// chooses: geom picks the width (1–128), the height (1–64) and the frame
// count (1–4), and the luma repeats data, each frame starting a third of a
// plane further into it (all zero when data is empty).
func FuzzAnalyzeMatchesReference(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(0x3F|15<<7|1<<13), []byte{255})
	f.Add(uint64(31|7<<7|2<<13), []byte{0, 255, 1, 254, 2})
	f.Add(uint64(66|40<<7|3<<13), []byte{253, 254, 255, 7, 100, 3, 99})
	f.Add(uint64(127|63<<7|3<<13), []byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, geom uint64, data []byte) {
		w, h, n := 1+int(geom&127), 1+int(geom>>7&63), 1+int(geom>>13&3)
		frames := make([]*frame.YUV, n)
		for i := range frames {
			frames[i] = frame.NewYUV(w, h)
			if len(data) == 0 {
				continue
			}
			for k := range frames[i].Y.Pix {
				frames[i].Y.Pix[k] = data[(i*w*h/3+k)%len(data)]
			}
		}
		checkAnalyze(t, frames)
	})
}

// pairLevels are the levels the joined writes are tested with: zero and
// both signs of every power of two, one below and one above it, up to the
// int32 limits, so every length of the level's code, 1 to 65 bits, occurs.
var pairLevels = func() []int32 {
	l := []int32{0, math.MinInt32, math.MinInt32 + 1, math.MaxInt32}
	for k := 0; k < 31; k++ {
		for _, v := range []int64{1<<k - 1, 1 << k, 1<<k + 1} {
			if v > 0 && v <= math.MaxInt32 {
				l = append(l, int32(v), int32(-v))
			}
		}
	}
	return l
}()

// TestWriteJoinedMatchesWriter holds writeJoined to the calls it replaces:
// after a prefix of every length 0–63 (so the joined code meets every
// window fill), the coded flag and a DC delta, or a run of 0–62 and a
// level, then the EOB when asked for, must leave the bytes and the BitLen
// of WriteBits, WriteSE and WriteUE — for every level of pairLevels. The
// EOB must be joined exactly when the three codes fit in 64 bits.
func TestWriteJoinedMatchesWriter(t *testing.T) {
	var got, want bitstream.Writer
	for hi := uint64(1); hi <= eobMarker; hi++ {
		// The length of ue(hi-1); at hi = 1 this is also the coded flag
		// before a DC delta, the same single 1 bit.
		nh := 2*uint(bits.Len64(hi)) - 1
		for _, level := range pairLevels {
			for _, eob := range []bool{false, true} {
				for prefix := uint(0); prefix < 64; prefix++ {
					got.Reset()
					want.Reset()
					got.WriteBits(0x5A5A5A5A5A5A5A5A, prefix)
					want.WriteBits(0x5A5A5A5A5A5A5A5A, prefix)
					joined := writeJoined(&got, hi, nh, level, eob)
					if eob && !joined {
						got.WriteUE(eobMarker)
					}
					want.WriteBits(hi, nh)
					want.WriteSE(int64(level))
					fits := want.BitLen()-int(prefix)+eobLen <= 64
					if eob {
						want.WriteUE(eobMarker)
					}
					if joined != (eob && fits) {
						t.Fatalf("hi %d, level %d, eob %v: joined the EOB %v, want %v", hi, level, eob, joined, eob && fits)
					}
					if got.BitLen() != want.BitLen() || !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("hi %d, level %d, eob %v after %d bits: %d bits %x, want %d bits %x",
							hi, level, eob, prefix, got.BitLen(), got.Bytes(), want.BitLen(), want.Bytes())
					}
				}
			}
		}
	}
}
