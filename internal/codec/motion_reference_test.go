package codec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sieve/internal/frame"
)

// The motion search reads a padded reference (paddedPlane) with one
// row-addressed SAD per candidate. The oracles below are the search as it
// was written over plain planes and frame.SADBounded, whose clamped rows
// are Plane.At's rule: the padded search must choose the same vector at the
// same cost for every block, every range and every predictor, which holds
// exactly when the border holds the clamp wherever a candidate reads.

// refDiamondSearch is the diamond search over plain planes, without the
// visited set: every proposed candidate is costed, however often the
// diamonds propose it.
func refDiamondSearch(cur, ref *frame.Plane, bx, by, size, rangePx int, pred MV) (MV, int) {
	best := MV{}
	bestCost := frame.SAD(cur, bx, by, ref, bx, by, size, size)
	// Early exit: a static block needs no search.
	if bestCost <= size*size/2 {
		return best, bestCost
	}
	pred = MV{clampMV(pred.X, rangePx), clampMV(pred.Y, rangePx)}
	if pred != best {
		if c := frame.SADBounded(cur, bx, by, ref, bx+pred.X, by+pred.Y, size, size, bestCost); c < bestCost {
			best, bestCost = pred, c
		}
	}
	// Large diamond until the centre wins.
	for steps := 0; steps < 2*rangePx; steps++ {
		improved := false
		for _, d := range largeDiamond {
			cand := MV{clampMV(best.X+d.X, rangePx), clampMV(best.Y+d.Y, rangePx)}
			if cand == best {
				continue
			}
			if c := frame.SADBounded(cur, bx, by, ref, bx+cand.X, by+cand.Y, size, size, bestCost); c < bestCost {
				best, bestCost = cand, c
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	// Small diamond refinement.
	for _, d := range smallDiamond {
		cand := MV{clampMV(best.X+d.X, rangePx), clampMV(best.Y+d.Y, rangePx)}
		if c := frame.SADBounded(cur, bx, by, ref, bx+cand.X, by+cand.Y, size, size, bestCost); c < bestCost {
			best, bestCost = cand, c
		}
	}
	return best, bestCost
}

// refFullSearch is the exhaustive search over plain planes.
func refFullSearch(cur, ref *frame.Plane, bx, by, size, rangePx int) (MV, int) {
	best := MV{}
	bestCost := frame.SAD(cur, bx, by, ref, bx, by, size, size)
	for dy := -rangePx; dy <= rangePx; dy++ {
		for dx := -rangePx; dx <= rangePx; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			c := frame.SADBounded(cur, bx, by, ref, bx+dx, by+dy, size, size, bestCost+1)
			if c < bestCost || (c == bestCost && absInt(dx)+absInt(dy) < absInt(best.X)+absInt(best.Y)) {
				best, bestCost = MV{dx, dy}, c
			}
		}
	}
	return best, bestCost
}

// refInterCost is the analyzer's inter cost over plain half-res planes.
func refInterCost(cur, ref *frame.Plane) int64 {
	deadzone := interDeadzonePerPixel * analysisBlock * analysisBlock
	var total int64
	for by := 0; by < cur.H; by += analysisBlock {
		pred := MV{}
		for bx := 0; bx < cur.W; bx += analysisBlock {
			mv, sad := refDiamondSearch(cur, ref, bx, by, analysisBlock, analysisRange, pred)
			pred = mv
			if sad > deadzone {
				total += int64(sad - deadzone)
			}
		}
	}
	return total
}

// padPlane copies p into a plane padded for a search of range r over
// size-wide blocks, border extended.
func padPlane(p *frame.Plane, size, r int) *paddedPlane {
	q := newPaddedPlane(p.W, p.H, size, r)
	q.CopyFrom(p)
	q.extend()
	return q
}

// encoderBlock is the search subject as the encoder builds it: the block of
// the plain current plane, in place or clamped into a scratch block.
func encoderBlock(cur *frame.Plane, ref *paddedPlane, bx, by, size int) *searchBlock {
	b := &searchBlock{ref: ref, x: bx, y: by, size: size}
	b.cur, b.stride = loadBlock(cur, bx, by, size, make([]byte, size*size))
	return b
}

// checkBorder requires the padded plane to hold Plane.At's clamp at every
// pixel a search of range r over size-wide blocks (grid-aligned, the last
// overhanging the plane) can read: from -r to the plane rounded up to the
// block size plus r, in both axes.
func checkBorder(t testing.TB, p *paddedPlane, size, r int) {
	t.Helper()
	xEnd := (p.W+size-1)/size*size + r
	yEnd := (p.H+size-1)/size*size + r
	for y := -r; y < yEnd; y++ {
		for x := -r; x < xEnd; x++ {
			if got, want := p.from(x, y)[0], p.At(x, y); got != want {
				t.Fatalf("%dx%d plane padded for size %d range %d: border (%d,%d) = %d, want At's %d",
					p.W, p.H, size, r, x, y, got, want)
			}
		}
	}
}

// checkSearches runs the padded diamond search for the block at (bx, by) —
// with the current block as the encoder loads it and, when curPad is not
// nil, as the analyzer reads it from its own padded plane — and, when full
// is set, the padded full search as the encoder runs it, and requires the
// oracles' vector and cost from each.
func checkSearches(t testing.TB, cur, ref *frame.Plane, curPad, refPad *paddedPlane, bx, by, size, r int, pred MV, full bool) {
	t.Helper()
	blocks := []*searchBlock{encoderBlock(cur, refPad, bx, by, size)}
	if curPad != nil {
		blocks = append(blocks, &searchBlock{cur: curPad.from(bx, by), stride: curPad.Stride, ref: refPad, x: bx, y: by, size: size})
	}
	wantMV, wantCost := refDiamondSearch(cur, ref, bx, by, size, r, pred)
	var fullMV MV
	var fullCost int
	if full {
		fullMV, fullCost = refFullSearch(cur, ref, bx, by, size, r)
	}
	seen := newVisited(r)
	for i, b := range blocks {
		if mv, cost := diamondSearch(b, pred, seen); mv != wantMV || cost != wantCost {
			t.Fatalf("%dx%d block (%d,%d) size %d range %d pred %v, current block %d: diamond %v cost %d, reference %v cost %d",
				cur.W, cur.H, bx, by, size, r, pred, i, mv, cost, wantMV, wantCost)
		}
		if !full || i > 0 {
			continue
		}
		if mv, cost := fullSearch(b, r); mv != fullMV || cost != fullCost {
			t.Fatalf("%dx%d block (%d,%d) size %d range %d, current block %d: full search %v cost %d, reference %v cost %d",
				cur.W, cur.H, bx, by, size, r, i, mv, cost, fullMV, fullCost)
		}
	}
}

// TestDiamondSearchMatchesReference runs the padded search and the oracle
// over every block of every frame pair of the golden clips — at the
// encoder's geometry (16-pixel macroblocks, partial ones included, the
// current block loaded as the encoder loads it) and the analyzer's (8-pixel
// blocks of padded half-resolution planes) — chaining the predictor along
// each row as the callers do, at a wide, a narrow and a clamping-heavy
// range, and with a hostile random predictor. Neither the padding nor the
// visited set may change one vector or one cost.
func TestDiamondSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	searches, moved := 0, 0
	for _, g := range goldenStreams {
		frames := g.video(g.w, g.h, g.frames, g.enter, g.seed)
		for _, geom := range []struct {
			size, rangePx int
			half          bool
		}{{16, 16, false}, {16, 2, false}, {8, 8, true}, {8, 1, true}} {
			seen := newVisited(geom.rangePx)
			for i := 1; i < len(frames); i++ {
				// Two frames back as well: larger displacements, longer walks.
				for _, back := range []int{1, 2} {
					if i < back {
						continue
					}
					cur, ref := frames[i].Y, frames[i-back].Y
					if geom.half {
						cur, ref = Downsample2x(cur), Downsample2x(ref)
					}
					curPad, refPad := padPlane(cur, geom.size, geom.rangePx), padPlane(ref, geom.size, geom.rangePx)
					for by := 0; by < cur.H; by += geom.size {
						pred := MV{}
						for bx := 0; bx < cur.W; bx += geom.size {
							if rng.Intn(4) == 0 {
								pred = MV{rng.Intn(41) - 20, rng.Intn(41) - 20}
							}
							b := encoderBlock(cur, refPad, bx, by, geom.size)
							if geom.half {
								b = &searchBlock{cur: curPad.from(bx, by), stride: curPad.Stride, ref: refPad, x: bx, y: by, size: geom.size}
							}
							wantMV, wantCost := refDiamondSearch(cur, ref, bx, by, geom.size, geom.rangePx, pred)
							gotMV, gotCost := diamondSearch(b, pred, seen)
							if gotMV != wantMV || gotCost != wantCost {
								t.Fatalf("%s frame %d-%d block (%d,%d) size %d range %d pred %v: got %v cost %d, reference %v cost %d",
									g.name, i, back, bx, by, geom.size, geom.rangePx, pred, gotMV, gotCost, wantMV, wantCost)
							}
							pred = gotMV
							searches++
							if gotMV != (MV{}) {
								moved++
							}
						}
					}
				}
			}
		}
	}
	if moved*20 < searches {
		t.Fatalf("only %d of %d searches left the origin: the clips do not exercise the walk", moved, searches)
	}
}

// TestPaddedBorderIsTheClamp extends planes of the geometries the codec
// pads — the benchmark's 600×400 luma at range 16 and its half-res plane,
// sizes not divisible by the block, planes smaller than one block — and
// requires the clamp at every pixel a search can read, corners included.
func TestPaddedBorderIsTheClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, c := range []struct{ w, h, size, r int }{
		{600, 400, 16, 16}, {300, 200, 8, 8}, {320, 240, 16, 16}, {64, 48, 16, 2},
		{20, 12, 16, 40}, {6, 4, 16, 1}, {1, 1, 8, 8}, {2, 30, 8, 3}, {33, 1, 16, 5},
	} {
		t.Run(fmt.Sprintf("%dx%d/size%d/r%d", c.w, c.h, c.size, c.r), func(t *testing.T) {
			p := frame.NewPlane(c.w, c.h)
			rng.Read(p.Pix)
			checkBorder(t, padPlane(p, c.size, c.r), c.size, c.r)
		})
	}
}

// TestSearchAtEdgesMatchesReference runs both searches at every block of
// the frame's edges and corners, the 600-wide frame's last half-macroblock
// column included, at the encoder's default range, the widest one a test
// here uses and a one-pixel one.
func TestSearchAtEdgesMatchesReference(t *testing.T) {
	frames := noisyVideo(600, 64, 2, 0, 11)
	cur, ref := frames[1].Y, frames[0].Y
	for _, r := range []int{16, 40, 1} {
		curPad, refPad := padPlane(cur, mbSize, r), padPlane(ref, mbSize, r)
		for by := 0; by < cur.H; by += mbSize {
			for bx := 0; bx < cur.W; bx += mbSize {
				if by > 0 && by+mbSize < cur.H && bx > 0 && bx+mbSize < cur.W {
					continue
				}
				full := bx == 0 || bx+mbSize >= cur.W
				checkSearches(t, cur, ref, curPad, refPad, bx, by, mbSize, r, MV{-3 * r, 2 * r}, full)
			}
		}
	}
}

// FuzzMotionSearchMatchesReference draws two planes, w×h from 1×1 to 71×71
// (sizes not divisible by the block, and smaller than one block, included),
// the block size (8 or 16), the range (1 to 40) and a predictor anywhere
// from ±3·range, from geom; pixels repeat pix over 4×4 cells, and the
// reference is the current plane displaced by up to ±7 pixels with every
// eighth cell changed, so searches move. It requires the clamp in each
// padded plane's border, the oracles' (vector, cost) from the diamond
// search at every block (every edge block included) and from the full
// search at the four corner blocks, and the analyzer's inter cost from its
// padded planes equal to the oracle's.
func FuzzMotionSearchMatchesReference(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(0x5a5a_0f0f_3c3c_1234), []byte{0, 255, 9, 200, 17, 128, 64})
	f.Add(uint64(math.MaxUint64), []byte{255})
	rng := rand.New(rand.NewSource(37))
	for range 12 {
		pix := make([]byte, 1+rng.Intn(96))
		rng.Read(pix)
		f.Add(rng.Uint64(), pix)
	}
	f.Fuzz(func(t *testing.T, geom uint64, pix []byte) {
		if len(pix) == 0 {
			pix = []byte{0}
		}
		take := func(bits uint) int {
			v := int(geom & (1<<bits - 1))
			geom >>= bits
			return v
		}
		w, h := 1+take(6)+take(3), 1+take(6)+take(3)
		size := []int{8, 16}[take(1)]
		r := 1 + take(6)%40
		dx, dy := take(4)-7, take(4)-7
		pred := MV{take(7)%(6*r+1) - 3*r, take(7)%(6*r+1) - 3*r}
		cell := func(x, y int) byte {
			return pix[((x>>2)+(y>>2)*19)%len(pix)]
		}
		cur, ref := frame.NewPlane(w, h), frame.NewPlane(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				cur.Set(x, y, cell(x+16, y+16))
				v := cell(x+16+dx, y+16+dy)
				if ((x>>2)+(y>>2))%8 == 7 {
					v ^= 0x5c
				}
				ref.Set(x, y, v)
			}
		}
		curPad, refPad := padPlane(cur, size, r), padPlane(ref, size, r)
		checkBorder(t, curPad, size, r)
		checkBorder(t, refPad, size, r)
		for by := 0; by < h; by += size {
			for bx := 0; bx < w; bx += size {
				corner := (bx == 0 || bx+size >= w) && (by == 0 || by+size >= h)
				checkSearches(t, cur, ref, curPad, refPad, bx, by, size, r, pred, corner)
			}
		}
		hc, hr := Downsample2x(cur), Downsample2x(ref)
		got := interCost(padPlane(hc, analysisBlock, analysisRange), padPlane(hr, analysisBlock, analysisRange), newVisited(analysisRange))
		if want := refInterCost(hc, hr); got != want {
			t.Fatalf("%dx%d half-res inter cost %d, reference %d", hc.W, hc.H, got, want)
		}
	})
}

// TestVisitedGenerationWrap pins the one stateful corner of the set: when
// the generation counter wraps, stamps left by searches 2³² generations ago
// must not read as visited.
func TestVisitedGenerationWrap(t *testing.T) {
	v := newVisited(2)
	v.begin()
	if !v.add(MV{1, -2}) || v.add(MV{1, -2}) {
		t.Fatal("add must report new once, then not")
	}
	v.gen = ^uint32(0) // the stamp of MV{1,-2} is generation 1
	v.begin()
	if v.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", v.gen)
	}
	if !v.add(MV{1, -2}) {
		t.Fatal("a stamp from before the wrap reads as visited")
	}
}
