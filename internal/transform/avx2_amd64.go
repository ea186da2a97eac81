package transform

// cpu.AVX2 routes Forward to forwardAVX2, the inverse of every block with
// more than a DC term to inverseMaskedAVX2 and Quantize to quantizeAVX2; an
// amd64 CPU without AVX2 runs the Go kernels, as every other GOARCH does.

// forwardAVX2 is forwardGo four lanes at a time (forward_amd64.s): each lane
// is one dot8, the same products added left to right from the first, with
// no fused multiply-add, rounded by VCVTPD2DQ under Go's
// round-to-nearest-even MXCSR.
//
//go:noescape
func forwardAVX2(src, dst *Block)

// inverseMaskedAVX2 is inverseMaskedGo's sparse path four lanes at a time
// (inverse_amd64.s) for any masks, dense blocks included: each lane is one
// of the Go kernel's accumulators, starting at zero and fed the same
// products in the same order, rounded by VCVTPD2DQ (= roundHalfEven).
//
//go:noescape
func inverseMaskedAVX2(src *Block, q *[BlockSize * BlockSize]int32, rows, cols uint, dst *Block)

// quantizeAVX2 is quantizeGo eight lanes at a time (quantize_amd64.s), by
// the same reciprocals r[i] = ⌈2³¹/q[i]⌉. It reports ok=false, with dst
// unspecified, when any |src[i]| >= 2¹⁵ (MinInt32 included), where the
// reciprocal is not proven exact; nz is whether any level is non-zero.
//
//go:noescape
func quantizeAVX2(src, dst *Block, q *[BlockSize * BlockSize]int32, r *[BlockSize * BlockSize]uint32) (nz, ok bool)
