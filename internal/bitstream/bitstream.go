// Package bitstream provides bit-level readers and writers plus the
// Exp-Golomb universal codes used by the SiEVE video codec's entropy layer.
//
// The writer packs bits MSB-first into bytes; the reader consumes the same
// layout. Both are allocation-light: the writer appends to an internal
// buffer, the reader walks a caller-provided slice without copying it.
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrShortBuffer is returned when a read runs past the end of the input.
var ErrShortBuffer = errors.New("bitstream: read past end of buffer")

// Writer accumulates bits MSB-first through a 64-bit window. The zero value
// is ready to use.
//
// For every sequence of calls it produces the bytes, Len and BitLen of the
// byte-at-a-time writer it replaced (the oracle in reference_test.go); its
// buffer never holds more bytes than that writer's did, so it grows no
// buffer that one did not.
type Writer struct {
	buf []byte
	win uint64 // the n bits not yet in buf, in its low n bits; those above are stale
	n   uint   // bits in win (0..63)
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBit appends a single bit (any non-zero v writes 1).
func (w *Writer) WriteBit(v uint64) {
	w.WriteBits(v&1, 1)
}

// WriteBits appends the low n bits of v, MSB first. n must be in [0,64];
// any other n panics. Bits that fit in the window are one shift and or;
// the write that fills it stores all 64 bits with one AppendUint64, and
// the bits of v left over stay in win.
//
// The whole method fits the inliner's budget, so it inlines into its
// callers: AppendUint64 costs the inliner one node, and the range check
// panics with a conversion, not a formatted string, because a call to
// fmt would cost more than the budget holds.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n < 64-w.n { // w.n < 64, so no wrap; n > 64 falls through
		w.win = w.win<<n | v&(1<<n-1)
		w.n += n
		return
	}
	if n > 64 {
		panic(widthError(n))
	}
	v &= 1<<n - 1 // 1<<64 is 0 in Go: n == 64 keeps every bit
	k := 64 - w.n // 1..64; a shift by 64 gives 0
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.win<<k|v>>(n-k))
	w.win = v
	w.n = n - k
}

// widthError is what WriteBits panics with for a width above 64.
type widthError uint

func (n widthError) Error() string {
	return fmt.Sprintf("bitstream: WriteBits n=%d out of range", uint(n))
}

// errNoCode is what WriteUE and WriteSE panic with for the two values a
// Reader cannot decode: their code would start with 64 zeros.
var errNoCode = errors.New("bitstream: value has no Exp-Golomb code a Reader can read")

// WriteUE appends v as an unsigned Exp-Golomb code: lz zero bits, then the
// lz+1 significant bits of v+1. Written as one field of 2·lz+1 bits, the
// zeros are simply x's own leading zeros; only codes too long for one field
// (v >= 2³²−1) write the prefix separately. v must be below MaxUint64: its
// code would start with 64 zeros, which no Reader reads, and WriteUE panics
// with errNoCode.
func (w *Writer) WriteUE(v uint64) {
	x := v + 1
	lz := uint(bits.Len64(x)) - 1
	if lz < 32 {
		w.WriteBits(x, 2*lz+1)
		return
	}
	w.writeLongUE(v)
}

// writeLongUE is WriteUE for v >= 2³²−1.
func (w *Writer) writeLongUE(v uint64) {
	if v == math.MaxUint64 {
		panic(fmt.Errorf("%w: WriteUE(%d)", errNoCode, v))
	}
	x := v + 1
	lz := uint(bits.Len64(x)) - 1
	w.WriteBits(0, lz)
	w.WriteBits(x, lz+1)
}

// WriteSE appends v as a signed Exp-Golomb code (0, 1, -1, 2, -2, ...):
// code number 2v−1 for v > 0 and −2v otherwise, which is the zig-zag map
// of −v, computed without a branch on the sign. v must not be MinInt64,
// whose code number would be 2⁶⁴; WriteSE panics with errNoCode.
func (w *Writer) WriteSE(v int64) {
	if v == math.MinInt64 {
		panic(fmt.Errorf("%w: WriteSE(%d)", errNoCode, v))
	}
	m := -v
	w.WriteUE(uint64(m<<1) ^ uint64(m>>63))
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
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.n) }

// Bytes aligns the stream and returns the accumulated bytes, moving the
// window's whole bytes into the buffer. The returned slice aliases the
// writer's buffer; further writes may invalidate it.
func (w *Writer) Bytes() []byte {
	w.Align()
	for ; w.n > 0; w.n -= 8 {
		w.buf = append(w.buf, byte(w.win>>(w.n-8)))
	}
	return w.buf
}

// Reset truncates the writer for reuse, keeping its capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.win = 0
	w.n = 0
}

// errCodeTooLong reports an Exp-Golomb prefix of 64 zeros.
var errCodeTooLong = errors.New("bitstream: Exp-Golomb code too long")

// Reader consumes bits MSB-first from a byte slice through a 64-bit window.
// The zero value reads from a nil (empty) buffer; use NewReader for a
// populated one.
//
// For every input and every sequence of calls it returns the value, the
// error and the BitsRead() of the bit-serial reader it replaced (the oracle
// in reference_test.go), errors included: a ReadBits or ReadUE that runs
// past the end has consumed the rest of the buffer, and a ReadUE whose
// prefix is 64 zeros fails having consumed them.
type Reader struct {
	buf  []byte
	next int    // index of the first byte of buf not yet loaded into win
	win  uint64 // unread bits, left-aligned; see refill for the bits below them
	nwin uint   // how many of win's top bits are unread stream bits (0..64)
}

// NewReader returns a Reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Reset repoints the reader at buf and rewinds it, reusing the Reader value
// (the codec's decode hot path resets one reader per frame instead of
// allocating one).
func (r *Reader) Reset(buf []byte) {
	*r = Reader{buf: buf}
}

// refill loads whole bytes into the window until it holds at least 57 unread
// bits or the buffer is exhausted: eight bytes in one load while that many
// remain, then byte by byte. The eight-byte load also ORs the leading bits of
// the first byte it does not count into win below the counted ones; they are
// the stream's next bits, so a later load ORs the same bits over them, and
// every shift that consumes bits brings zeros in underneath.
func (r *Reader) refill() {
	if r.next+8 <= len(r.buf) {
		k := (64 - r.nwin) >> 3
		r.win |= binary.BigEndian.Uint64(r.buf[r.next:]) >> r.nwin
		r.next += int(k)
		r.nwin += k << 3
		return
	}
	for r.nwin <= 56 && r.next < len(r.buf) {
		r.win |= uint64(r.buf[r.next]) << (56 - r.nwin)
		r.next++
		r.nwin += 8
	}
}

// take consumes the next n <= nwin bits of the window.
func (r *Reader) take(n uint) uint64 {
	v := r.win >> (64 - n) // 0 for n == 0
	r.win <<= n
	r.nwin -= n
	return v
}

// Peek refills the window and returns it: the unread bits, left-aligned, and
// how many of its top bits are stream bits — at least 57, or every bit left
// when fewer remain. The bits below the top n are zeros or the stream's next
// bits; a caller must not read them. Peek consumes nothing.
//
// Peek and Consume let a parser decode from a local copy of the window and
// hand back what it used: it peeks, decodes codes off the top of its copy
// while they fit in n, and consumes the bits it decoded, after which every
// other call reads on from there.
//
//sieve:noalloc entropy parse of the decode hot path
func (r *Reader) Peek() (win uint64, n uint) {
	r.refill()
	return r.win, r.nwin
}

// Consume discards the next n bits, which the last Peek's window must hold:
// n may not exceed the count Peek returned, less any bits read since.
//
//sieve:noalloc entropy parse of the decode hot path
func (r *Reader) Consume(n uint) {
	if n > r.nwin {
		panic("bitstream: Consume past the window")
	}
	r.take(n)
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint64, error) {
	return r.ReadBits(1)
}

// ReadBits reads n bits (n in [0,64]) MSB-first.
//
//sieve:noalloc entropy parse of the decode hot path; error branches are cold
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > r.nwin {
		return r.readBitsSlow(n)
	}
	return r.take(n), nil
}

// readBitsSlow is ReadBits when the window holds fewer than n bits.
//
//sieve:noalloc entropy parse of the decode hot path; error branches are cold
func (r *Reader) readBitsSlow(n uint) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("bitstream: ReadBits n=%d out of range", n)
	}
	r.refill()
	if n <= r.nwin {
		return r.take(n), nil
	}
	if n > uint(r.Remaining()) {
		r.next, r.win, r.nwin = len(r.buf), 0, 0
		return 0, ErrShortBuffer
	}
	// 58 to 64 bits with 57 to 63 in the window: the top n−32, then 32 more
	// (a refill after the first part leaves at least 32).
	hi := r.take(n - 32)
	r.refill()
	return hi<<32 | r.take(32), nil
}

// ReadUE reads an unsigned Exp-Golomb code.
//
//sieve:noalloc entropy parse of the decode hot path; error branches are cold
func (r *Reader) ReadUE() (uint64, error) {
	if v, ok := r.ueWindow(); ok {
		return v, nil
	}
	return r.readUESlow()
}

// ueWindow is the Exp-Golomb fast path: a code of lz zeros and lz+1
// significant bits that lies inside the window is its top 2·lz+1 bits, read
// in one shift, minus one. It reports false, consuming nothing, for any
// other code.
func (r *Reader) ueWindow() (uint64, bool) {
	w := r.win
	n := 2*uint(bits.LeadingZeros64(w)) + 1
	if n > r.nwin {
		return 0, false
	}
	r.win = w << n
	r.nwin -= n
	return w>>(64-n) - 1, true
}

// readUESlow refills the window and retries the fast path, and otherwise —
// a code longer than 57 bits, or one the end of the buffer cuts — reads the
// code bit by bit.
//
//sieve:noalloc entropy parse of the decode hot path; error branches are cold
func (r *Reader) readUESlow() (uint64, error) {
	r.refill()
	if v, ok := r.ueWindow(); ok {
		return v, nil
	}
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
			return 0, errCodeTooLong
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
//
//sieve:noalloc entropy parse of the decode hot path; error branches are cold
func (r *Reader) ReadSE() (int64, error) {
	u, ok := r.ueWindow()
	if !ok {
		var err error
		if u, err = r.readUESlow(); err != nil {
			return 0, err
		}
	}
	// Even u maps to −(u/2) and odd u to (u+1)/2, both halved as unsigned
	// (u < 2⁶⁴−1 here, so u+1 does not wrap, and a u of 2⁶³ or more still
	// gives a value of |v| < 2⁶³), and the two are selected without a
	// branch: a level's sign is a coin toss the branch predictor loses half
	// the time.
	even, odd := -int64(u>>1), int64((u+1)>>1)
	return even ^ (even^odd)&-int64(u&1), nil
}

// Align skips to the next byte boundary. The window only ever loads whole
// bytes, so the bits left of the current byte are the window's count mod 8.
func (r *Reader) Align() {
	r.take(r.nwin & 7)
}

// BitsRead reports how many bits have been consumed.
func (r *Reader) BitsRead() int { return r.next*8 - int(r.nwin) }

// Remaining reports how many bits are left.
func (r *Reader) Remaining() int {
	total := len(r.buf) * 8
	return total - r.BitsRead()
}
