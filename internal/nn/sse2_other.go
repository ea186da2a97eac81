//go:build !amd64

package nn

// haveSSE2 is false: Conv2D.forwardItem and allFinite run the Go kernels.
const haveSSE2 = false

func interiorSSE2(w *[9]float32, in, out *float32, inW, outW, rows, cols, stride int) {
	panic("nn: interiorSSE2 exists only on amd64")
}

func panelSSE2(w, x *float32, sums *[convBlock]float32, run uint64, plane, inW, k, rows, cols int) {
	panic("nn: panelSSE2 exists only on amd64")
}

func allFiniteSSE2(v *float32, n int) bool {
	panic("nn: allFiniteSSE2 exists only on amd64")
}
