// Package bitstream provides bit-level readers and writers plus the
// Exp-Golomb universal codes used by the SiEVE video codec's entropy layer.
//
// The writer packs bits MSB-first into bytes; the reader consumes the same
// layout. Both are allocation-light: the writer appends to an internal
// buffer, the reader walks a caller-provided slice without copying it.
package bitstream

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrShortBuffer is returned when a read runs past the end of the input.
var ErrShortBuffer = errors.New("bitstream: read past end of buffer")

// Writer accumulates bits MSB-first. The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // bits not yet flushed, left-aligned in the low `n` bits
	n    uint   // number of valid bits in cur (0..63)
	bits int    // total bits written
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBit appends a single bit (any non-zero v writes 1).
func (w *Writer) WriteBit(v uint64) {
	w.WriteBits(v&1, 1)
}

// WriteBits appends the low n bits of v, MSB first. n must be in [0,64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n > 64 {
		panic(fmt.Sprintf("bitstream: WriteBits n=%d out of range", n))
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	w.bits += int(n)
	// Fill cur up to 64 bits, flushing whole bytes as they complete.
	for n > 0 {
		space := 64 - w.n
		take := n
		if take > space {
			take = space
		}
		w.cur = (w.cur << take) | (v >> (n - take))
		if n-take < 64 {
			v &= (1 << (n - take)) - 1
		}
		w.n += take
		n -= take
		for w.n >= 8 {
			w.buf = append(w.buf, byte(w.cur>>(w.n-8)))
			w.n -= 8
			if w.n < 64 {
				w.cur &= (1 << w.n) - 1
			}
		}
	}
}

// WriteUE appends v as an unsigned Exp-Golomb code: lz zero bits, then the
// lz+1 significant bits of v+1. Written as one field of 2·lz+1 bits, the
// zeros are simply x's own leading zeros; only codes too long for one field
// (v >= 2³²−1) write the prefix separately.
func (w *Writer) WriteUE(v uint64) {
	x := v + 1
	lz := uint(bits.Len64(x)) - 1
	if lz < 32 {
		w.WriteBits(x, 2*lz+1)
		return
	}
	w.WriteBits(0, lz)
	w.WriteBits(x, lz+1)
}

// WriteSE appends v as a signed Exp-Golomb code (0, 1, -1, 2, -2, ...).
func (w *Writer) WriteSE(v int64) {
	var u uint64
	if v <= 0 {
		u = uint64(-2 * v)
	} else {
		u = uint64(2*v - 1)
	}
	w.WriteUE(u)
}

// Align pads with zero bits to the next byte boundary.
func (w *Writer) Align() {
	if rem := w.n % 8; rem != 0 {
		w.WriteBits(0, 8-rem)
	}
}

// Len reports the number of whole bytes the stream would occupy after Align.
func (w *Writer) Len() int {
	return len(w.buf) + int((w.n+7)/8)
}

// BitLen reports the exact number of bits written so far.
func (w *Writer) BitLen() int { return w.bits }

// Bytes aligns the stream and returns the accumulated bytes. The returned
// slice aliases the writer's buffer; further writes may invalidate it.
func (w *Writer) Bytes() []byte {
	w.Align()
	return w.buf
}

// Reset truncates the writer for reuse, keeping its capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur = 0
	w.n = 0
	w.bits = 0
}

// Reader consumes bits MSB-first from a byte slice. The zero value reads
// from a nil (empty) buffer; use NewReader for a populated one.
type Reader struct {
	buf []byte
	pos int  // byte position
	n   uint // bits already consumed from buf[pos] (0..7)
}

// NewReader returns a Reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Reset repoints the reader at buf and rewinds it, reusing the Reader value
// (the codec's decode hot path resets one reader per frame instead of
// allocating one).
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.n = 0
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint64, error) {
	return r.ReadBits(1)
}

// ReadBits reads n bits (n in [0,64]) MSB-first.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("bitstream: ReadBits n=%d out of range", n)
	}
	var v uint64
	for n > 0 {
		if r.pos >= len(r.buf) {
			return 0, ErrShortBuffer
		}
		avail := 8 - r.n
		take := n
		if take > avail {
			take = avail
		}
		b := uint64(r.buf[r.pos])
		b >>= avail - take
		b &= (1 << take) - 1
		v = (v << take) | b
		r.n += take
		n -= take
		if r.n == 8 {
			r.n = 0
			r.pos++
		}
	}
	return v, nil
}

// ReadUE reads an unsigned Exp-Golomb code.
func (r *Reader) ReadUE() (uint64, error) {
	var lz uint
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		lz++
		if lz > 63 {
			return 0, errors.New("bitstream: Exp-Golomb code too long")
		}
	}
	if lz == 0 {
		return 0, nil
	}
	rest, err := r.ReadBits(lz)
	if err != nil {
		return 0, err
	}
	return (1<<lz | rest) - 1, nil
}

// ReadSE reads a signed Exp-Golomb code.
func (r *Reader) ReadSE() (int64, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 0 {
		return -int64(u / 2), nil
	}
	return int64(u+1) / 2, nil
}

// Align skips to the next byte boundary.
func (r *Reader) Align() {
	if r.n != 0 {
		r.n = 0
		r.pos++
	}
}

// BitsRead reports how many bits have been consumed.
func (r *Reader) BitsRead() int { return r.pos*8 + int(r.n) }

// Remaining reports how many bits are left.
func (r *Reader) Remaining() int {
	total := len(r.buf) * 8
	return total - r.BitsRead()
}
