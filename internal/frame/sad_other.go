//go:build !amd64

package frame

// haveSADAsm is false: SADRows runs sadRowsGo and SADBounded sadBoundedGo.
const haveSADAsm = false

func sadRows(a []byte, astride int, b []byte, bstride int, w, h, bound int) int {
	panic("frame: sadRows exists only on amd64")
}
