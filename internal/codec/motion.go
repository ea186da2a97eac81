package codec

import "sieve/internal/frame"

// largeDiamond and smallDiamond are the classic LDSP/SDSP point sets.
var (
	largeDiamond = []MV{{0, -2}, {-1, -1}, {1, -1}, {-2, 0}, {2, 0}, {-1, 1}, {1, 1}, {0, 2}}
	smallDiamond = []MV{{0, -1}, {-1, 0}, {1, 0}, {0, 1}}
)

// searchMotion finds the motion vector minimising SAD for the size×size
// block at (bx, by) of cur against ref, within ±seen.r of (0,0). pred seeds
// the search (typically the left neighbour's MV).
func searchMotion(cur, ref *frame.Plane, bx, by, size int, pred MV, method MotionSearch, seen *visited) (MV, int) {
	if method == SearchFull {
		return fullSearch(cur, ref, bx, by, size, seen.r)
	}
	return diamondSearch(cur, ref, bx, by, size, pred, seen)
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
// frame.SADBounded can stop summing rows as soon as the partial sum reaches
// bestCost without changing which vector wins. The returned cost is always
// exact — a winning candidate's sum completes below the bound by definition.
func diamondSearch(cur, ref *frame.Plane, bx, by, size int, pred MV, seen *visited) (MV, int) {
	best := MV{}
	bestCost := frame.SAD(cur, bx, by, ref, bx, by, size, size)
	// Early exit: a static block needs no search.
	if bestCost <= size*size/2 {
		return best, bestCost
	}
	rangePx := seen.r
	seen.begin()
	seen.add(best)
	pred = MV{clampMV(pred.X, rangePx), clampMV(pred.Y, rangePx)}
	if seen.add(pred) {
		if c := frame.SADBounded(cur, bx, by, ref, bx+pred.X, by+pred.Y, size, size, bestCost); c < bestCost {
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
		if !seen.add(cand) {
			continue
		}
		if c := frame.SADBounded(cur, bx, by, ref, bx+cand.X, by+cand.Y, size, size, bestCost); c < bestCost {
			best, bestCost = cand, c
		}
	}
	return best, bestCost
}

// fullSearch bounds each candidate at bestCost+1, not bestCost: its
// tie-break (equal cost, strictly shorter vector wins) needs the exact SAD
// when c == bestCost, and with bound = bestCost+1 any true sum <= bestCost
// completes without an early exit, i.e. exactly.
func fullSearch(cur, ref *frame.Plane, bx, by, size, rangePx int) (MV, int) {
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

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
