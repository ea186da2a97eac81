package nn

// haveSSE2 routes Conv2D.forwardItem and allFinite to the SSE2 kernels
// below. SSE2 is part of every amd64 CPU, so there is nothing to detect.
const haveSSE2 = true

// interiorSSE2 is interior3x3Go's sweep of one (oc, ic) pair four outputs
// at a time (conv_amd64.s): each lane is one output, and takes the nine
// products w[t]·x in tap order, each rounded by MULPS and added by ADDPS
// exactly as the Go statement `acc += float32(w*x)` does. in points at the
// top-left tap of the first output, out at that output; the sweep covers
// rows >= 1 output rows of cols >= 4 outputs, stride 1 or 2, and reads no
// sample past the last output's last tap.
//
//go:noescape
func interiorSSE2(w *[9]float32, in, out *float32, inW, outW, rows, cols, stride int)

// panelSSE2 is forwardAtGo for a block of sixteen filters at one position
// (conv_amd64.s): each lane is one filter. For every channel in run
// (non-empty), in ascending order, and every tap of the rows × cols window
// (both >= 1), it broadcasts the input value at x and adds its product
// with the tap's sixteen panel weights into sums, which start at the
// block's biases. x points at the window's first tap in channel 0, w at
// that tap's weights in the panel; channels are plane values apart in x
// and k·k taps apart in the panel.
//
//go:noescape
func panelSSE2(w, x *float32, sums *[convBlock]float32, run uint64, plane, inW, k, rows, cols int)

// allFiniteSSE2 is allFiniteGo over the first n values at v, n a multiple
// of four, four values at a time (conv_amd64.s).
//
//go:noescape
func allFiniteSSE2(v *float32, n int) bool
