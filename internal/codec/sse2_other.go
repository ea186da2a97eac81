//go:build !amd64

package codec

import "sieve/internal/transform"

// haveSSE2 is false: every block is stored by the Go kernels.
const haveSSE2 = false

func storeResidualSSE2(dst []byte, stride int, pred, res *transform.Block) {
	panic("codec: storeResidualSSE2 exists only on amd64")
}

func storePredSSE2(dst []byte, stride int, pred *transform.Block) {
	panic("codec: storePredSSE2 exists only on amd64")
}
