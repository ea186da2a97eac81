//go:build !amd64

package transform

// haveForwardAsm is false: Forward runs forwardGo.
const haveForwardAsm = false

func forwardSSE2(src, dst *Block) { panic("transform: forwardSSE2 exists only on amd64") }
