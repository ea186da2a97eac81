package codec

import (
	"math/rand"
	"testing"

	"sieve/internal/frame"
)

// refDiamondSearch is diamondSearch as it was before the visited set: every
// proposed candidate is costed, however often the diamonds propose it.
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

// TestDiamondSearchMatchesReference runs both searches over every block of
// every frame pair of the golden clips — at the encoder's geometry (16-pixel
// macroblocks, partial ones included) and the analyzer's (8-pixel blocks of
// the half-resolution planes) — chaining the predictor along each row as
// the callers do, at a wide, a narrow and a clamping-heavy range, and with
// a hostile random predictor. Skipping visited candidates must not change
// one vector or one cost.
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
					for by := 0; by < cur.H; by += geom.size {
						pred := MV{}
						for bx := 0; bx < cur.W; bx += geom.size {
							if rng.Intn(4) == 0 {
								pred = MV{rng.Intn(41) - 20, rng.Intn(41) - 20}
							}
							wantMV, wantCost := refDiamondSearch(cur, ref, bx, by, geom.size, geom.rangePx, pred)
							gotMV, gotCost := diamondSearch(cur, ref, bx, by, geom.size, pred, seen)
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
