//go:build !amd64

package transform

// haveSSE2 is false: Forward, the inverse and Quantize run their Go kernels.
const haveSSE2 = false

func forwardSSE2(src, dst *Block) { panic("transform: forwardSSE2 exists only on amd64") }

func inverseMaskedSSE2(src *Block, q *[BlockSize * BlockSize]int32, rows, cols uint, dst *Block) {
	panic("transform: inverseMaskedSSE2 exists only on amd64")
}

func quantizeSSE2(src, dst *Block, q *[BlockSize * BlockSize]int32, r *[BlockSize * BlockSize]uint32) (nz, ok bool) {
	panic("transform: quantizeSSE2 exists only on amd64")
}
