//go:build !amd64

package codec

import "sieve/internal/transform"

// haveSSE2 is false: every block is stored, fetched, differenced and
// masked, and every analysis row and block downsampled and costed, by the
// Go kernels.
const haveSSE2 = false

func storeResidualSSE2(dst []byte, stride int, pred, res *transform.Block) {
	panic("codec: storeResidualSSE2 exists only on amd64")
}

func storePredSSE2(dst []byte, stride int, pred *transform.Block) {
	panic("codec: storePredSSE2 exists only on amd64")
}

func fetchSSE2(dst *transform.Block, src []byte, stride int) {
	panic("codec: fetchSSE2 exists only on amd64")
}

func residualSSE2(dst *transform.Block, src []byte, stride int, pred *transform.Block) {
	panic("codec: residualSSE2 exists only on amd64")
}

func nonZeroSSE2(lev *transform.Block) uint64 {
	panic("codec: nonZeroSSE2 exists only on amd64")
}

func downsampleRowSSE2(dst, r0, r1 []byte) {
	panic("codec: downsampleRowSSE2 exists only on amd64")
}

func dcCostSSE2(src []byte, stride int) int {
	panic("codec: dcCostSSE2 exists only on amd64")
}
