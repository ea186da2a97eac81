//go:build !amd64

package cpu

// AVX2 is false: the AVX2 kernels exist only on amd64.
const AVX2 = false
