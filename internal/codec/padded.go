package codec

import "sieve/internal/frame"

// paddedPlane is a plane allocated inside a border that replicates its edge
// pixels, as x264 pads its reference frames: after extend, the border byte
// at any (x, y) holds Plane.At(x, y), the codec's clamp. A motion search
// over a padded reference costs every candidate with one row-addressed SAD
// and a motion-compensated fetch reads its rows in place, because no vector
// the search can choose reaches past the border.
//
// The border is as tight as that allows: the search range r on the left and
// on top, and r plus the last block's overhang (the plane rounded up to the
// block size) on the right and at the bottom. Only luma is padded.
type paddedPlane struct {
	// Plane is the W×H picture. Its Pix starts at pixel (0, 0) and ends at
	// pixel (W-1, H-1), capacity included, so no reader that walks len(Pix)
	// or a row of Stride bytes sees the border.
	frame.Plane
	buf                      []byte // the picture and its border, rows Stride apart
	org                      int    // index in buf of pixel (0, 0)
	left, top, right, bottom int    // border widths
}

// newPaddedPlane allocates a zeroed w×h plane inside the border a search of
// range r over size-wide blocks needs.
func newPaddedPlane(w, h, size, r int) *paddedPlane {
	right := r + (size-w%size)%size
	bottom := r + (size-h%size)%size
	stride := r + w + right
	buf := make([]byte, stride*(r+h+bottom))
	org := r*stride + r
	end := org + (h-1)*stride + w
	return &paddedPlane{
		Plane: frame.Plane{Pix: buf[org:end:end], Stride: stride, W: w, H: h},
		buf:   buf, org: org,
		left: r, top: r, right: right, bottom: bottom,
	}
}

// from returns the padded plane from pixel (x, y) on, for any (x, y) inside
// the border.
//
//sieve:noalloc motion-search inner loop
func (p *paddedPlane) from(x, y int) []byte { return p.buf[p.offset(x, y):] }

// offset returns the index in buf of pixel (x, y), for any (x, y) inside
// the border.
//
//sieve:noalloc motion-search inner loop
func (p *paddedPlane) offset(x, y int) int { return p.org + y*p.Stride + x }

// extend writes the border from the picture's edge pixels: each row's ends
// left and right, then the first and last rows, corners included, up and
// down. It touches only the border, O(perimeter), and runs once per frame,
// after the picture is complete.
//
//sieve:noalloc once per frame on the encode path
func (p *paddedPlane) extend() {
	s := p.Stride
	for y := 0; y < p.H; y++ {
		row := p.buf[p.org+y*s-p.left : p.org+y*s+p.W+p.right]
		fillBytes(row[:p.left], row[p.left])
		fillBytes(row[p.left+p.W:], row[p.left+p.W-1])
	}
	first := p.buf[p.org-p.left:][:s]
	for y := 1; y <= p.top; y++ {
		copy(p.buf[p.org-p.left-y*s:][:s], first)
	}
	last := p.buf[p.org-p.left+(p.H-1)*s:][:s]
	for y := 1; y <= p.bottom; y++ {
		copy(p.buf[p.org-p.left+(p.H-1+y)*s:][:s], last)
	}
}

func fillBytes(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

// loadBlock returns the size×size block of p at (x, y), whose rows lie
// stride bytes apart from its first pixel: in place when the block lies
// inside p, else copied into scratch (size·size bytes) under the clamp, the
// edge pixels repeated over the overhang.
//
//sieve:noalloc once per macroblock on the encode path
func loadBlock(p *frame.Plane, x, y, size int, scratch []byte) (block []byte, stride int) {
	if x+size <= p.W && y+size <= p.H {
		return p.Pix[y*p.Stride+x:], p.Stride
	}
	for r := 0; r < size; r++ {
		row := p.Row(min(y+r, p.H-1))
		d := scratch[r*size : r*size+size]
		n := copy(d, row[x:])
		fillBytes(d[n:], row[p.W-1])
	}
	return scratch, size
}
