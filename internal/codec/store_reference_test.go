package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sieve/internal/frame"
	"sieve/internal/transform"
)

// The reconstruct store is the one step the encoder and every decoder share
// after the inverse transform, so a store that differs from the Go kernel by
// one pixel moves the encoder's reference and every decoder's output alike:
// encoder and decoders still agree with each other, and only the golden
// streams and these tests see it. These tests hold the SSE2 kernels
// (store_amd64.s) to the Go kernels and to the textbook rule, one pixel at a
// time through Plane.Set, on the whole int32 range — including the sums that
// wrap.

// storeSentinel fills every byte of a test plane's backing array that lies
// outside the plane; a store that writes there is caught.
const storeSentinel = 0xA5

// storeTarget is a w×h plane whose rows lie w+pad bytes apart. Pix ends
// right after the last pixel, as tight as a plane may be, so a Go kernel
// that writes past it panics; buf runs a row further, so an assembly store
// past it leaves a mark instead of corrupting the heap.
type storeTarget struct {
	p   *frame.Plane
	buf []byte
}

func newStoreTarget(rng *rand.Rand, w, h, pad int) storeTarget {
	stride := w + pad
	buf := make([]byte, stride*(h+1))
	for i := range buf {
		buf[i] = storeSentinel
	}
	p := &frame.Plane{Pix: buf[:stride*(h-1)+w], Stride: stride, W: w, H: h}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p.Set(x, y, byte(rng.Intn(256)))
		}
	}
	return storeTarget{p: p, buf: buf}
}

func (s storeTarget) clone() storeTarget {
	buf := append([]byte(nil), s.buf...)
	p := *s.p
	p.Pix = buf[:len(s.p.Pix)]
	return storeTarget{p: &p, buf: buf}
}

// storeOracle is the rule both stores implement, written as the textbook
// loop: clamp(pred + res) into every in-plane pixel of the block, the
// overhang dropped. A nil res stores the prediction alone.
func storeOracle(dst *frame.Plane, bx, by int, pred, res *transform.Block) {
	const n = transform.BlockSize
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			v := pred[y*n+x]
			if res != nil {
				v += res[y*n+x]
			}
			dst.Set(bx+x, by+y, frame.Clamp(int(v)))
		}
	}
}

// checkStore stores pred (and pred + res) at (bx, by) of a copy of dst with
// every kernel that may run there — the dispatcher, the Go kernel and, for
// an in-plane block on amd64, the SSE2 kernel on its own — and requires the
// whole backing array, sentinels included, to equal storeOracle's.
func checkStore(t testing.TB, dst storeTarget, bx, by int, pred, res *transform.Block) {
	t.Helper()
	type kernel struct {
		name string
		pred func(*frame.Plane)
		res  func(*frame.Plane)
	}
	kernels := []kernel{
		{"dispatch",
			func(p *frame.Plane) { writePredBlock(p, bx, by, pred) },
			func(p *frame.Plane) { writeResidualBlock(p, bx, by, pred, res) }},
		{"go",
			func(p *frame.Plane) { writePredBlockGo(p, bx, by, pred) },
			func(p *frame.Plane) { writeResidualBlockGo(p, bx, by, pred, res) }},
	}
	if haveSSE2 && inside(dst.p, bx, by) {
		kernels = append(kernels, kernel{"sse2",
			func(p *frame.Plane) { storePredSSE2(p.Pix[by*p.Stride+bx:], p.Stride, pred) },
			func(p *frame.Plane) { storeResidualSSE2(p.Pix[by*p.Stride+bx:], p.Stride, pred, res) }})
	}
	wantP, wantR := dst.clone(), dst.clone()
	storeOracle(wantP.p, bx, by, pred, nil)
	storeOracle(wantR.p, bx, by, pred, res)
	for _, k := range kernels {
		for _, c := range []struct {
			op   string
			run  func(*frame.Plane)
			want storeTarget
		}{{"pred", k.pred, wantP}, {"residual", k.res, wantR}} {
			got := dst.clone()
			c.run(got.p)
			for i := range got.buf {
				if got.buf[i] != c.want.buf[i] {
					stride := dst.p.Stride
					t.Fatalf("%s %s store, %dx%d plane stride %d, block (%d,%d): byte %d (x %d, y %d) = %d, want %d",
						k.name, c.op, dst.p.W, dst.p.H, stride, bx, by, i, i%stride, i/stride, got.buf[i], c.want.buf[i])
				}
			}
		}
	}
}

// storeValue draws one sample: mostly near the clamp's edges and the int16
// saturation points PACKSSDW passes through, sometimes anywhere in int32.
func storeValue(rng *rand.Rand) int32 {
	edges := [...]int32{0, 255, 256, -1, 32767, 32768, -32768, -32769, 65535, 65536,
		math.MaxInt32, math.MinInt32}
	switch rng.Intn(4) {
	case 0:
		return int32(rng.Uint32())
	case 1:
		return edges[rng.Intn(len(edges))] + int32(rng.Intn(5)-2)
	default:
		return int32(rng.Intn(400) - 72)
	}
}

func TestStoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	const n = transform.BlockSize
	for trial := 0; trial < 5000; trial++ {
		w, h := n+rng.Intn(40), n+rng.Intn(40)
		dst := newStoreTarget(rng, w, h, rng.Intn(3)*rng.Intn(17))
		var bx, by int
		if rng.Intn(4) > 0 {
			bx, by = rng.Intn(w-n+1), rng.Intn(h-n+1) // inside: the SSE2 path
		} else {
			bx, by = rng.Intn(w+2*n)-n, rng.Intn(h+2*n)-n
		}
		var pred, res transform.Block
		for i := range pred {
			pred[i], res[i] = storeValue(rng), storeValue(rng)
		}
		checkStore(t, dst, bx, by, &pred, &res)
	}
}

// TestStoreEdgeBlocksTakeGoPath stores blocks that hang over each edge and
// corner, or lie wholly outside, into planes with padding after every row
// and a spare row below: the dispatcher must send them to the Go kernel,
// because the 8×8 SSE2 store would write into that padding.
func TestStoreEdgeBlocksTakeGoPath(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var pred, res transform.Block
	for i := range pred {
		pred[i], res[i] = int32(rng.Intn(300)-20), int32(rng.Intn(101)-50)
	}
	for _, c := range []struct{ w, h, bx, by int }{
		{300, 200, 296, 0},   // the 600×400 frame's last chroma column
		{300, 200, 296, 192}, // its bottom-right chroma block
		{20, 12, 16, 8},      // right and bottom
		{20, 12, 8, 8},       // bottom
		{20, 12, -4, 0},      // left
		{20, 12, 0, -4},      // top
		{20, 12, -8, -8},     // wholly outside, top left
		{20, 12, 24, 0},      // wholly outside, right
		{8, 8, 1, 0},         // one column over a block-sized plane
		{10, 8, 3, 0},        // three columns over
	} {
		t.Run(fmt.Sprintf("%dx%d@%d,%d", c.w, c.h, c.bx, c.by), func(t *testing.T) {
			dst := newStoreTarget(rng, c.w, c.h, 8)
			if inside(dst.p, c.bx, c.by) {
				t.Fatalf("block (%d,%d) of a %dx%d plane is inside it; the table wants edge blocks", c.bx, c.by, c.w, c.h)
			}
			checkStore(t, dst, c.bx, c.by, &pred, &res)
		})
	}
}

// FuzzStoreMatchesReference reads a prediction and a residual block as 128
// little-endian int32s from data (zeros past its end) and stores them at a
// position taken from geom into a plane whose size and padding geom also
// picks. Three positions in four lie inside the plane, where the SSE2 kernel
// runs; the fourth is drawn from 16 pixels before the plane to past its far
// edge, so it may overhang any edge or miss the plane.
func FuzzStoreMatchesReference(f *testing.F) {
	block := func(vals ...int32) []byte {
		b := make([]byte, 0, 512)
		for i := 0; i < 128; i++ {
			b = binary.LittleEndian.AppendUint32(b, uint32(vals[i%len(vals)]))
		}
		return b
	}
	pairs := func(pr, rs int32) []byte {
		vals := make([]int32, 128)
		for i := range 64 {
			vals[i], vals[64+i] = pr, rs
		}
		return block(vals...)
	}
	f.Add(uint64(0), []byte{})
	f.Add(uint64(0), pairs(math.MinInt32, math.MinInt32)) // wraps to 0
	f.Add(uint64(1), pairs(math.MaxInt32, 1))             // wraps to MinInt32
	f.Add(uint64(2), pairs(math.MaxInt32, math.MaxInt32)) // wraps to -2
	f.Add(uint64(3), pairs(math.MinInt32, -1))            // wraps to MaxInt32
	f.Add(uint64(4), pairs(256, 0))
	f.Add(uint64(5), pairs(0, -1))
	f.Add(uint64(6), pairs(200, 56))
	f.Add(uint64(7), pairs(32767, 1))
	f.Add(uint64(8), pairs(-32768, -1))
	f.Add(uint64(0x9e37_79b9_7f4a_7c15), block(-1, 256, 0, 255, 257, -2, 32768, -32769, 65536))
	rng := rand.New(rand.NewSource(38))
	for range 8 {
		vals := make([]int32, 128)
		for i := range vals {
			vals[i] = storeValue(rng)
		}
		f.Add(rng.Uint64(), block(vals...))
	}
	const n = transform.BlockSize
	f.Fuzz(func(t *testing.T, geom uint64, data []byte) {
		take := func(bits uint) int {
			v := int(geom & (1<<bits - 1))
			geom >>= bits
			return v
		}
		var buf [512]byte
		copy(buf[:], data)
		var pred, res transform.Block
		for i := range pred {
			pred[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
			res[i] = int32(binary.LittleEndian.Uint32(buf[256+4*i:]))
		}
		w, h, pad := n+take(5), n+take(5), take(4)
		rng := rand.New(rand.NewSource(int64(take(8))))
		dst := newStoreTarget(rng, w, h, pad)
		bx, by := take(6)%(w-n+1), take(6)%(h-n+1)
		if take(2) == 0 {
			bx, by = take(6)-2*n, take(6)-2*n
		}
		checkStore(t, dst, bx, by, &pred, &res)
	})
}
