package codec

import (
	"math/rand"
	"testing"

	"sieve/internal/bitstream"
	"sieve/internal/frame"
	"sieve/internal/transform"
)

// TestBlockEdgePathsMatchAtSet holds the clamped-row block kernels to the
// rule they replace — reads through Plane.At (border extension), writes
// through Plane.Set (overhang dropped) — for blocks inside the plane,
// straddling each edge and corner, and fully outside it.
func TestBlockEdgePathsMatchAtSet(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const n = transform.BlockSize
	for trial := 0; trial < 20000; trial++ {
		w, h := 4+rng.Intn(30), 4+rng.Intn(30)
		src := frame.NewPlane(w, h)
		for i := range src.Pix {
			src.Pix[i] = byte(rng.Intn(256))
		}
		bx, by := rng.Intn(w+3*n)-2*n, rng.Intn(h+3*n)-2*n
		mv := MV{rng.Intn(9) - 4, rng.Intn(9) - 4}

		var pred, res transform.Block
		fillPredMC(&pred, src, bx, by, mv)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if want := int32(src.At(bx+mv.X+x, by+mv.Y+y)); pred[y*n+x] != want {
					t.Fatalf("fillPredMC %dx%d block (%d,%d) mv %v: [%d,%d] = %d, want %d",
						w, h, bx, by, mv, x, y, pred[y*n+x], want)
				}
			}
		}

		for i := range res {
			pred[i] = int32(rng.Intn(300) - 20)
			res[i] = int32(rng.Intn(101) - 50)
		}
		gotP, wantP := frame.NewPlane(w, h), frame.NewPlane(w, h)
		gotR, wantR := frame.NewPlane(w, h), frame.NewPlane(w, h)
		writePredBlock(gotP, bx, by, &pred)
		writeResidualBlock(gotR, bx, by, &pred, &res)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				wantP.Set(bx+x, by+y, frame.Clamp(int(pred[y*n+x])))
				wantR.Set(bx+x, by+y, frame.Clamp(int(pred[y*n+x]+res[y*n+x])))
			}
		}
		if !gotP.Equal(wantP) || !gotR.Equal(wantR) {
			t.Fatalf("write block %dx%d at (%d,%d) differs from Plane.Set", w, h, bx, by)
		}

		// Skip copy: macroblock grid positions only, both sizes.
		size := []int{mbSize, mbSize / 2}[rng.Intn(2)]
		cx, cy := rng.Intn(w/size+2)*size, rng.Intn(h/size+2)*size
		gotC, wantC := frame.NewPlane(w, h), frame.NewPlane(w, h)
		copyBlock(gotC, src, cx, cy, size)
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				wantC.Set(cx+x, cy+y, src.At(cx+x, cy+y))
			}
		}
		if !gotC.Equal(wantC) {
			t.Fatalf("copyBlock %dx%d size %d at (%d,%d) differs from Set(At)", w, h, size, cx, cy)
		}
	}
}

// TestEncodeBlockResidualAtEdge checks the residual load of encodeBlock on
// overhanging blocks: a plane predicted by its own border-extended pixels
// has a zero residual, so the block must cost exactly the one-bit flag.
func TestEncodeBlockResidualAtEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := frame.NewPlane(20, 12)
	for i := range p.Pix {
		p.Pix[i] = byte(rng.Intn(256))
	}
	recon := frame.NewPlane(20, 12)
	bc := newBlockCoder(85)
	w := bitstream.NewWriter(16)
	for _, pos := range [][2]int{{16, 0}, {16, 8}, {8, 8}, {24, 8}, {0, 16}, {-8, -8}} {
		fillPredMC(&bc.pred, p, pos[0], pos[1], MV{})
		before := w.BitLen()
		bc.encodeBlock(w, p, recon, pos[0], pos[1])
		if got := w.BitLen() - before; got != 1 {
			t.Fatalf("block at %v: self-predicted residual cost %d bits, want 1", pos, got)
		}
	}
}
