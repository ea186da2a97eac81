package codec

import (
	"math"

	"sieve/internal/frame"
)

// largeDiamond and smallDiamond are the classic LDSP/SDSP point sets.
var (
	largeDiamond = []MV{{0, -2}, {-1, -1}, {1, -1}, {-2, 0}, {2, 0}, {-1, 1}, {1, 1}, {0, 2}}
	smallDiamond = []MV{{0, -1}, {-1, 0}, {1, 0}, {0, 1}}
)

// searchBlock is what one motion search matches: the size×size block at
// (x, y) of the current picture, whose rows lie stride bytes apart from
// cur[0], against the padded reference ref. Every candidate vector the
// search may choose (|mv| <= the range ref was padded for) addresses rows
// inside ref's border, so each is costed by one SADRows call with no clamp.
type searchBlock struct {
	cur        []byte
	stride     int
	ref        *paddedPlane
	x, y, size int
}

// sad returns the block's SAD against ref displaced by mv, stopping after
// the first row at which the running sum reaches bound (frame.SADBounded's
// contract, the same partial sums included).
//
//sieve:noalloc motion-search inner loop with early exit
func (b *searchBlock) sad(mv MV, bound int) int {
	return frame.SADRows(b.cur, b.stride, b.ref.from(b.x+mv.X, b.y+mv.Y), b.ref.Stride, b.size, b.size, bound)
}

// searchMotion finds the motion vector minimising the SAD of b within
// ±seen.r of (0,0). pred seeds the search (typically the left neighbour's
// MV).
func searchMotion(b *searchBlock, pred MV, method MotionSearch, seen *visited) (MV, int) {
	if method == SearchFull {
		return fullSearch(b, seen.r)
	}
	return diamondSearch(b, pred, seen)
}

func clampMV(v, rangePx int) int {
	if v < -rangePx {
		return -rangePx
	}
	if v > rangePx {
		return rangePx
	}
	return v
}

// visited is the set of candidate vectors one diamond search has already
// costed, over the window [-r, r]². Overlapping diamonds propose the same
// vector more than once; a vector that lost once loses again, because it
// lost against a bound that has only fallen since, so the search skips it
// and finds the same vector at the same cost. One generation stamp per cell
// makes starting a search O(1); the table is sized once, by its owner.
type visited struct {
	r     int
	gen   uint32
	stamp []uint32
}

func newVisited(r int) *visited {
	return &visited{r: r, stamp: make([]uint32, (2*r+1)*(2*r+1))}
}

// begin empties the set.
func (v *visited) begin() {
	v.gen++
	if v.gen == 0 { // wrapped: stale stamps could match again
		clear(v.stamp)
		v.gen = 1
	}
}

// add puts mv (inside the window) into the set and reports whether it was
// new.
func (v *visited) add(mv MV) bool {
	i := (mv.Y+v.r)*(2*v.r+1) + mv.X + v.r
	if v.stamp[i] == v.gen {
		return false
	}
	v.stamp[i] = v.gen
	return true
}

// diamondSearch threads the running best cost into every candidate SAD as
// an early-exit bound: a candidate only matters if it is strictly better, so
// the SAD can stop summing rows as soon as the partial sum reaches bestCost
// without changing which vector wins. The returned cost is always exact — a
// winning candidate's sum completes below the bound by definition.
func diamondSearch(b *searchBlock, pred MV, seen *visited) (MV, int) {
	best := MV{}
	bestCost := b.sad(best, math.MaxInt)
	// Early exit: a static block needs no search.
	if bestCost <= b.size*b.size/2 {
		return best, bestCost
	}
	rangePx := seen.r
	seen.begin()
	seen.add(best)
	pred = MV{clampMV(pred.X, rangePx), clampMV(pred.Y, rangePx)}
	if seen.add(pred) {
		if c := b.sad(pred, bestCost); c < bestCost {
			best, bestCost = pred, c
		}
	}
	// Large diamond until the centre wins.
	for steps := 0; steps < 2*rangePx; steps++ {
		improved := false
		for _, d := range largeDiamond {
			cand := MV{clampMV(best.X+d.X, rangePx), clampMV(best.Y+d.Y, rangePx)}
			if !seen.add(cand) {
				continue
			}
			if c := b.sad(cand, bestCost); c < bestCost {
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
		if !seen.add(cand) {
			continue
		}
		if c := b.sad(cand, bestCost); c < bestCost {
			best, bestCost = cand, c
		}
	}
	return best, bestCost
}

// fullSearch bounds each candidate at bestCost+1, not bestCost: its
// tie-break (equal cost, strictly shorter vector wins) needs the exact SAD
// when c == bestCost, and with bound = bestCost+1 any true sum <= bestCost
// completes without an early exit, i.e. exactly.
func fullSearch(b *searchBlock, rangePx int) (MV, int) {
	best := MV{}
	bestCost := b.sad(best, math.MaxInt)
	for dy := -rangePx; dy <= rangePx; dy++ {
		for dx := -rangePx; dx <= rangePx; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			c := b.sad(MV{dx, dy}, bestCost+1)
			if c < bestCost || (c == bestCost && absInt(dx)+absInt(dy) < absInt(best.X)+absInt(best.Y)) {
				best, bestCost = MV{dx, dy}, c
			}
		}
	}
	return best, bestCost
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
