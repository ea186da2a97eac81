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
// inside ref's border, so SADRows and SADx4 cost each with no clamp.
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

// sadx4 sets costs[i] to the block's full SAD against ref displaced by
// mvs[i].
//
//sieve:noalloc motion-search inner loop, four candidates a call
func (b *searchBlock) sadx4(mvs *[4]MV, costs *[4]int) {
	var offs [4]int
	for i, mv := range mvs {
		offs[i] = b.ref.offset(b.x+mv.X, b.y+mv.Y)
	}
	frame.SADx4(b.cur, b.stride, b.ref.buf, b.ref.Stride, &offs, b.size, costs)
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
	i := v.index(mv)
	if v.stamp[i] == v.gen {
		return false
	}
	v.stamp[i] = v.gen
	return true
}

// has reports whether mv (inside the window) is in the set, without adding
// it.
func (v *visited) has(mv MV) bool { return v.stamp[v.index(mv)] == v.gen }

func (v *visited) index(mv MV) int { return (mv.Y+v.r)*(2*v.r+1) + mv.X + v.r }

// diamondSearch finds the motion vector minimising the SAD of b within
// ±seen.r of (0,0); pred seeds the search (typically the left neighbour's
// MV). It threads the running best cost into the single-candidate SADs as
// an early-exit bound: a candidate only matters if it is strictly better,
// so the SAD can stop summing rows as soon as the partial sum reaches
// bestCost without changing which vector wins. The diamonds' candidates
// are costed four at a time (pass). The returned cost is always exact — a
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
		var improved bool
		best, bestCost, improved = b.pass(largeDiamond, best, bestCost, seen)
		if !improved {
			break
		}
	}
	// Small diamond refinement.
	best, bestCost, _ = b.pass(smallDiamond, best, bestCost, seen)
	return best, bestCost
}

// pass tries the points of diamond around best in order, each candidate
// not yet in seen, and moves best to every one that costs less than
// bestCost — so the points after a move lie around the new centre. It
// gathers the next four unvisited candidates around the current centre,
// peeking at seen, costs them with one frame.SADx4 and walks them in order,
// adding each to seen; at the first that improves, it drops the rest,
// whose vectors were taken around the old centre, and gathers again after
// that point. A full SAD is below bestCost exactly when the bounded one is,
// and every candidate is compared with the bestCost the one-at-a-time walk
// would hold there, so the pass chooses the same vectors at the same costs.
// A candidate gathered twice (two points clamped to one vector) is costed
// once by the walk, as seen.add reports it only once.
//
//sieve:noalloc motion-search inner loop, four candidates a call
func (b *searchBlock) pass(diamond []MV, best MV, bestCost int, seen *visited) (MV, int, bool) {
	improved := false
	r := seen.r
	for i := 0; i < len(diamond); {
		var cands [4]MV
		var next [4]int // index in diamond after each candidate's point
		n := 0
		for ; i < len(diamond) && n < len(cands); i++ {
			cand := MV{clampMV(best.X+diamond[i].X, r), clampMV(best.Y+diamond[i].Y, r)}
			if !seen.has(cand) {
				cands[n], next[n] = cand, i+1
				n++
			}
		}
		if n == 0 {
			break
		}
		var costs [4]int
		b.sadx4(&cands, &costs) // slots past n cost the zero vector, unread
		for j, cand := range cands[:n] {
			if !seen.add(cand) {
				continue
			}
			if costs[j] < bestCost {
				best, bestCost, improved = cand, costs[j], true
				i = next[j]
				break
			}
		}
	}
	return best, bestCost, improved
}
