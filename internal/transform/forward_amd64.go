package transform

// haveForwardAsm routes Forward to forwardSSE2. SSE2 is part of every amd64
// CPU, so there is nothing to detect.
const haveForwardAsm = true

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
