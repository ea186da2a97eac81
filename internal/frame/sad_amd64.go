package frame

// haveSADAsm routes SADRows, and through it SADBounded's in-plane 8- and
// 16-wide blocks, to sadRows.
// SSE2 is part of every amd64 CPU, so there is nothing to detect.
const haveSADAsm = true

// sadRows is the SAD of h >= 1 rows of w (8 or 16) pixels starting at a[0]
// and b[0], rows astride and bstride bytes apart, stopping after the first
// row at which the running sum reaches bound (sad_amd64.s). SADRows
// guarantees every row lies inside a and b.
//
//go:noescape
func sadRows(a []byte, astride int, b []byte, bstride int, w, h, bound int) int

// sadX4AVX2 sets sads[i] to the SAD of the w×w (8 or 16) block at a[0],
// rows astride bytes apart, against the one at b[offs[i]], rows bstride
// apart, every row summed (sadx4_amd64.s). SADx4 guarantees every row lies
// inside a and b.
//
//go:noescape
func sadX4AVX2(a []byte, astride int, b []byte, bstride int, offs *[4]int, w int, sads *[4]int)
