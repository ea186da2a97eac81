package transform

// haveSSE2 routes Forward to forwardSSE2, the inverse of every block with
// more than a DC term to inverseMaskedSSE2 and Quantize to quantizeSSE2.
// SSE2 is part of every amd64 CPU, so there is nothing to detect.
const haveSSE2 = true

// cosDup[v][y] is cosTable[v][y] in both halves of a 16-byte pair: the
// column pass of forwardSSE2 multiplies two columns by one coefficient.
var cosDup = func() (d [BlockSize][BlockSize][2]float64) {
	for v := range d {
		for y := range d[v] {
			c := cosine(v, y)
			d[v][y] = [2]float64{c, c}
		}
	}
	return d
}()

// forwardSSE2 is forwardGo two lanes at a time (forward_amd64.s): each lane
// is one dot8, the same products added left to right from the first, with
// no fused multiply-add, rounded by CVTPD2PL under Go's round-to-nearest-even
// MXCSR.
//
//go:noescape
func forwardSSE2(src, dst *Block)

// inverseMaskedSSE2 is inverseMaskedGo's sparse path two lanes at a time
// (inverse_amd64.s) for any masks, dense blocks included: each lane is one
// of the Go kernel's accumulators s0..s7, starting at zero and fed the same
// products in the same order, rounded by CVTPD2PL (= roundHalfEven).
//
//go:noescape
func inverseMaskedSSE2(src *Block, q *[BlockSize * BlockSize]int32, rows, cols uint, dst *Block)

// quantizeSSE2 is quantizeGo four lanes at a time (quantize_amd64.s), by
// the same reciprocals r[i] = ⌈2³¹/q[i]⌉. It reports ok=false, with dst
// unspecified, when any |src[i]| >= 2¹⁵ (MinInt32 included), where the
// reciprocal is not proven exact; nz is whether any level is non-zero.
//
//go:noescape
func quantizeSSE2(src, dst *Block, q *[BlockSize * BlockSize]int32, r *[BlockSize * BlockSize]uint32) (nz, ok bool)
