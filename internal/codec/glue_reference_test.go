package codec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"sieve/internal/transform"
)

// The glue between the encoder's pixels and its transform blocks — the
// motion-compensated fetch, the residual and the non-zero mask — runs as
// SSE2 kernels (glue_amd64.s) on amd64 and as the Go kernels elsewhere.
// These tests hold every kernel that may run to the textbook loop: a fetch
// widens each byte, a residual is the wrapping int32 difference, and the
// mask has bit i set exactly when level i is not zero.

// checkGlue runs the fetch and the residual on the 8×8 block of src whose
// rows lie stride bytes apart, and the mask on lev, through the dispatcher,
// the Go kernel and, on amd64, the SSE2 kernel on its own, and requires each
// to equal the textbook loop. src ends at the block's last pixel, so a Go
// kernel that reads past it panics.
func checkGlue(t testing.TB, src []byte, stride int, pred, lev *transform.Block) {
	t.Helper()
	const n = transform.BlockSize
	src = src[:7*stride+n]
	var wantF, wantR transform.Block
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			wantF[y*n+x] = int32(src[y*stride+x])
			wantR[y*n+x] = int32(src[y*stride+x]) - pred[y*n+x]
		}
	}
	var wantM uint64
	for i, l := range lev {
		if l != 0 {
			wantM |= 1 << i
		}
	}
	type kernels struct {
		name  string
		fetch func(*transform.Block)
		resid func(*transform.Block)
		mask  func() uint64
	}
	all := []kernels{
		{"dispatch",
			func(d *transform.Block) { fetchBlock(d, src, stride) },
			func(d *transform.Block) { residualBlock(d, src, stride, pred) },
			func() uint64 { return nonZeroMask(lev) }},
		{"go",
			func(d *transform.Block) { fetchBlockGo(d, src, stride) },
			func(d *transform.Block) { residualBlockGo(d, src, stride, pred) },
			func() uint64 { return nonZeroMaskGo(lev) }},
	}
	if haveSSE2 {
		all = append(all, kernels{"sse2",
			func(d *transform.Block) { fetchSSE2(d, src, stride) },
			func(d *transform.Block) { residualSSE2(d, src, stride, pred) },
			func() uint64 { return nonZeroSSE2(lev) }})
	}
	for _, k := range all {
		var got transform.Block
		for i := range got {
			got[i] = math.MinInt32 + 12345 // a kernel that skips a lane leaves this
		}
		k.fetch(&got)
		if got != wantF {
			t.Fatalf("%s fetch, stride %d: %v, want %v", k.name, stride, got, wantF)
		}
		k.resid(&got)
		if got != wantR {
			t.Fatalf("%s residual, stride %d, pred %v: %v, want %v", k.name, stride, *pred, got, wantR)
		}
		if got := k.mask(); got != wantM {
			t.Fatalf("%s non-zero mask of %v: %#016x, want %#016x", k.name, *lev, got, wantM)
		}
	}
}

// singleLevels are the values a block with one non-zero level is tested
// with at each of the 64 positions: the saturating packs of the mask kernel
// must not narrow any of them to zero.
var singleLevels = [...]int32{1, -1, 65536, -65536}

// TestEncodeGlueMatchesReference runs checkGlue on random pixels at random
// strides, with predictions and levels drawn near the int16 and int32
// limits (the residual wraps at MinInt32 and MaxInt32), on blocks whose one
// non-zero level sits at each position in turn, and on the all-zero and
// all-non-zero blocks. It also pins rasterToScan as ScanIndex's inverse.
func TestEncodeGlueMatchesReference(t *testing.T) {
	for i := 0; i < 64; i++ {
		if got := int(rasterToScan[transform.ScanIndex(i)]); got != i {
			t.Fatalf("rasterToScan[ScanIndex(%d)] = %d", i, got)
		}
	}
	rng := rand.New(rand.NewSource(37))
	block := func(f func() int32) *transform.Block {
		var b transform.Block
		for i := range b {
			b[i] = f()
		}
		return &b
	}
	pixels := func(stride int) []byte {
		src := make([]byte, 7*stride+transform.BlockSize)
		rng.Read(src)
		return src
	}
	for trial := 0; trial < 3000; trial++ {
		stride := transform.BlockSize + rng.Intn(3)*rng.Intn(40)
		lev := block(func() int32 {
			if rng.Intn(3) > 0 {
				return 0
			}
			return storeValue(rng)
		})
		checkGlue(t, pixels(stride), stride, block(func() int32 { return storeValue(rng) }), lev)
	}
	for _, p := range []int32{math.MinInt32, math.MaxInt32, math.MinInt32 + 255, math.MaxInt32 - 1, 0} {
		pred := block(func() int32 { return p })
		checkGlue(t, pixels(8), 8, pred, block(func() int32 { return p }))
	}
	for pos := 0; pos < 64; pos++ {
		for _, v := range singleLevels {
			var lev transform.Block
			lev[pos] = v
			checkGlue(t, pixels(24), 24, &lev, &lev)
		}
	}
}

// FuzzEncodeGlueMatchesReference runs checkGlue on a block chosen by the
// fuzzer. data holds the prediction and then the levels as little-endian
// int32s (zeros past its end), and the pixels repeat data from its start;
// geom picks the stride (8 to 71) and, when its next bit is set, replaces
// the levels with one non-zero entry: the position and a value from
// singleLevels. The seeds cover that entry at every position and value,
// and predictions at MinInt32 and MaxInt32.
func FuzzEncodeGlueMatchesReference(f *testing.F) {
	block := func(pred, lev int32) []byte {
		b := make([]byte, 0, 512)
		for i := 0; i < 128; i++ {
			v := pred
			if i >= 64 {
				v = lev
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		return b
	}
	f.Add(uint64(0), []byte{})
	f.Add(uint64(0), block(math.MinInt32, math.MinInt32))
	f.Add(uint64(9), block(math.MaxInt32, math.MaxInt32))
	f.Add(uint64(40), block(math.MinInt32+1, 1))
	f.Add(uint64(63), block(-1, -65536))
	for pos := 0; pos < 64; pos++ {
		for v := range singleLevels {
			f.Add(uint64(1<<6|pos<<7|v<<13), []byte{byte(pos), 0xff, 0x80})
		}
	}
	f.Fuzz(func(t *testing.T, geom uint64, data []byte) {
		take := func(bits uint) int {
			v := int(geom & (1<<bits - 1))
			geom >>= bits
			return v
		}
		var buf [512]byte
		copy(buf[:], data)
		var pred, lev transform.Block
		for i := range pred {
			pred[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
			lev[i] = int32(binary.LittleEndian.Uint32(buf[256+4*i:]))
		}
		stride := transform.BlockSize + take(6)
		if take(1) == 1 {
			lev = transform.Block{}
			pos := take(6)
			lev[pos] = singleLevels[take(2)]
		}
		src := make([]byte, 7*stride+transform.BlockSize)
		if len(data) > 0 {
			for i := range src {
				src[i] = data[i%len(data)]
			}
		}
		checkGlue(t, src, stride, &pred, &lev)
	})
}
