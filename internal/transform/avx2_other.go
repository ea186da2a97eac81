//go:build !amd64

package transform

// cpu.AVX2 is false here: Forward, the inverse and Quantize run their Go
// kernels, and the assembly's stand-ins below are never called.

func forwardAVX2(src, dst *Block) { panic("transform: forwardAVX2 exists only on amd64") }

func inverseMaskedAVX2(src *Block, q *[BlockSize * BlockSize]int32, rows, cols uint, dst *Block) {
	panic("transform: inverseMaskedAVX2 exists only on amd64")
}

func quantizeAVX2(src, dst *Block, q *[BlockSize * BlockSize]int32, r *[BlockSize * BlockSize]uint32) (nz, ok bool) {
	panic("transform: quantizeAVX2 exists only on amd64")
}
