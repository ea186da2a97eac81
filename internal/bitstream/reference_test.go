package bitstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"testing"
)

// refWriter is the Writer this package shipped before the 64-bit window,
// kept verbatim (renamed) as the oracle the window writer is tested
// against: it moves every byte to buf as soon as its eighth bit arrives.
type refWriter struct {
	buf  []byte
	cur  uint64 // bits not yet flushed, left-aligned in the low `n` bits
	n    uint   // number of valid bits in cur (0..63)
	bits int    // total bits written
}

func (w *refWriter) WriteBit(v uint64) {
	w.WriteBits(v&1, 1)
}

func (w *refWriter) WriteBits(v uint64, n uint) {
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

func (w *refWriter) WriteUE(v uint64) {
	x := v + 1
	lz := uint(bits.Len64(x)) - 1
	if lz < 32 {
		w.WriteBits(x, 2*lz+1)
		return
	}
	w.WriteBits(0, lz)
	w.WriteBits(x, lz+1)
}

func (w *refWriter) WriteSE(v int64) {
	var u uint64
	if v <= 0 {
		u = uint64(-2 * v)
	} else {
		u = uint64(2*v - 1)
	}
	w.WriteUE(u)
}

func (w *refWriter) Align() {
	if rem := w.n % 8; rem != 0 {
		w.WriteBits(0, 8-rem)
	}
}

func (w *refWriter) Len() int {
	return len(w.buf) + int((w.n+7)/8)
}

func (w *refWriter) BitLen() int { return w.bits }

func (w *refWriter) Bytes() []byte {
	w.Align()
	return w.buf
}

func (w *refWriter) Reset() {
	w.buf = w.buf[:0]
	w.cur = 0
	w.n = 0
	w.bits = 0
}

// writeOp is one call of a writer call sequence, with what a Reader must
// read back for it.
type writeOp struct {
	kind byte // 'b' WriteBits, 'u' WriteUE, 's' WriteSE, 'a' Align or Bytes
	v    uint64
	n    uint
}

// replayWrites runs the call sequence data encodes against a Writer and the
// oracle, from the same initial capacity, and fails at the first call after
// which Len, BitLen or the bytes differ, or the Writer's buffer has grown
// where the oracle's has not. Each op takes one byte, its low three bits the
// call, and WriteBits, WriteUE and WriteSE read their argument from the
// next eight bytes, shifted right by the op's high five bits so short codes
// are common:
//
//	0, 1 WriteBits(v, 0..64)   2 WriteUE   3 WriteSE   4 WriteBit
//	5 Align   6 Bytes   7 Reset
//
// At each Reset and at the end, a Reader must read the stream back.
func replayWrites(t *testing.T, data []byte) {
	t.Helper()
	capHint := 0
	if len(data) > 0 {
		capHint = int(data[0] & 15)
	}
	got := NewWriter(capHint)
	want := &refWriter{buf: make([]byte, 0, capHint)}
	var log []writeOp
	arg := func(i *int, shift uint) uint64 {
		var b [8]byte
		*i += copy(b[:], data[min(*i, len(data)):])
		return binary.LittleEndian.Uint64(b[:]) >> shift
	}
	for i := 1; i < len(data); {
		op := data[i]
		i++
		shift := uint(op>>3) * 2
		var call string
		switch op & 7 {
		case 0, 1:
			n := uint(arg(&i, 0) % 65)
			v := arg(&i, shift)
			call = fmt.Sprintf("WriteBits(%#x, %d)", v, n)
			got.WriteBits(v, n)
			want.WriteBits(v, n)
			log = append(log, writeOp{'b', v & (1<<n - 1), n})
		case 2:
			v := arg(&i, shift)
			if v == math.MaxUint64 {
				v-- // the one value without a code
			}
			call = fmt.Sprintf("WriteUE(%d)", v)
			got.WriteUE(v)
			want.WriteUE(v)
			log = append(log, writeOp{kind: 'u', v: v})
		case 3:
			v := int64(arg(&i, 0)) >> shift
			if v == math.MinInt64 {
				v++ // the one value without a code
			}
			call = fmt.Sprintf("WriteSE(%d)", v)
			got.WriteSE(v)
			want.WriteSE(v)
			log = append(log, writeOp{kind: 's', v: uint64(v)})
		case 4:
			v := uint64(op >> 3)
			call = fmt.Sprintf("WriteBit(%d)", v)
			got.WriteBit(v)
			want.WriteBit(v)
			log = append(log, writeOp{'b', v & 1, 1})
		case 5, 6:
			call = "Align()"
			if op&7 == 6 {
				call = "Bytes()"
				g, w := got.Bytes(), want.Bytes()
				if !bytes.Equal(g, w) {
					t.Fatalf("op %d %s = % x, reference % x", i, call, g, w)
				}
			} else {
				got.Align()
				want.Align()
			}
			log = append(log, writeOp{kind: 'a'})
		case 7:
			call = "Reset()"
			want.Bytes()
			readBack(t, got.Bytes(), log)
			log = log[:0]
			got.Reset()
			want.Reset()
		}
		if got.Len() != want.Len() || got.BitLen() != want.BitLen() {
			t.Fatalf("op %d %s: Len %d BitLen %d, reference Len %d BitLen %d",
				i, call, got.Len(), got.BitLen(), want.Len(), want.BitLen())
		}
		if len(got.buf) > len(want.buf) || cap(got.buf) > cap(want.buf) {
			t.Fatalf("op %d %s: buffer of %d bytes (cap %d), reference %d (cap %d)",
				i, call, len(got.buf), cap(got.buf), len(want.buf), cap(want.buf))
		}
		// Bytes on copies: the stream so far, without aligning the writers.
		gc, wc := *got, *want
		if g, w := gc.Bytes(), wc.Bytes(); !bytes.Equal(g, w) {
			t.Fatalf("op %d %s: bytes % x, reference % x", i, call, g, w)
		}
	}
	readBack(t, got.Bytes(), log)
}

// readBack reads buf with a Reader as the writes in log describe it.
func readBack(t *testing.T, buf []byte, log []writeOp) {
	t.Helper()
	r := NewReader(buf)
	for i, op := range log {
		var v uint64
		var err error
		switch op.kind {
		case 'b':
			v, err = r.ReadBits(op.n)
		case 'u':
			v, err = r.ReadUE()
		case 's':
			var s int64
			s, err = r.ReadSE()
			v = uint64(s)
		case 'a':
			r.Align()
			continue
		}
		if err != nil || v != op.v {
			t.Fatalf("read back write %d (%c): %#x, %v; wrote %#x", i, op.kind, v, err, op.v)
		}
	}
	if rem := r.Remaining(); rem >= 8 {
		t.Fatalf("read back: %d bits left over", rem)
	}
}

// TestWriterMatchesReference runs random call sequences, rich in long codes
// and writes that straddle the window, through replayWrites.
func TestWriterMatchesReference(t *testing.T) {
	var s uint64 = 31
	next := func() byte {
		s = s*6364136223846793005 + 1442695040888963407
		return byte(s >> 56)
	}
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, 1+trial%300)
		for i := range data {
			data[i] = next()
		}
		replayWrites(t, data)
	}
}

// FuzzWriterMatchesReference runs the call sequence the input encodes
// through replayWrites.
func FuzzWriterMatchesReference(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 64, 1, 2, 3, 4, 5, 6, 7, 8, 2, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 6, 7})
	f.Add([]byte{8, 3, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x44, 5, 0xF4, 4, 0x3A, 1, 2, 3, 4, 5, 6, 7, 8, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		replayWrites(t, data)
	})
}

// refReader is the bit-serial Reader this package shipped before the
// 64-bit window, kept (renamed, with the one fix marked in ReadSE) as the
// oracle the window reader is tested against: ReadBits walks the buffer byte
// by byte and ReadUE reads its prefix one ReadBits(1) at a time.
type refReader struct {
	buf []byte
	pos int  // byte position
	n   uint // bits already consumed from buf[pos] (0..7)
}

func (r *refReader) ReadBit() (uint64, error) {
	return r.ReadBits(1)
}

func (r *refReader) ReadBits(n uint) (uint64, error) {
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

func (r *refReader) ReadUE() (uint64, error) {
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

func (r *refReader) ReadSE() (int64, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 0 {
		return -int64(u / 2), nil
	}
	// The shipped reader halved int64(u+1), which is negative for
	// u >= 2⁶³ and read every v >= 2⁶² back wrong; the oracle carries the
	// fix the Reader does.
	return int64((u + 1) / 2), nil
}

func (r *refReader) Align() {
	if r.n != 0 {
		r.n = 0
		r.pos++
	}
}

func (r *refReader) BitsRead() int { return r.pos*8 + int(r.n) }

func (r *refReader) Remaining() int {
	total := len(r.buf) * 8
	return total - r.BitsRead()
}

// errString is err's message, or "" for nil, so two errors built by
// different calls compare by what they say.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// replayOps runs the call sequence ops encodes against a Reader and the
// oracle over the same buffer and fails at the first call whose value,
// error or position differs. Each op is one byte; its low three bits pick
// the call and its high five bits the ReadBits width:
//
//	0 ReadBit   1 ReadBits(0..31)   7 ReadBits(32..63)
//	2, 3 ReadUE   4, 5 ReadSE   6 Align, or ReadBits(64|65) when bit 3 is set
func replayOps(t *testing.T, buf, ops []byte) {
	t.Helper()
	got := NewReader(buf)
	want := &refReader{buf: buf}
	for i, op := range ops {
		var gv, wv uint64
		var gs, ws int64
		var ge, we error
		var call string
		n := uint(op >> 3)
		switch op & 7 {
		case 0:
			call = "ReadBit()"
			gv, ge = got.ReadBit()
			wv, we = want.ReadBit()
		case 1, 6, 7:
			switch {
			case op&7 == 7:
				n += 32
			case op&7 == 6 && n&1 == 0:
				call = "Align()"
				got.Align()
				want.Align()
			case op&7 == 6:
				n = 64 + n>>1&1
			}
			if call == "" {
				call = fmt.Sprintf("ReadBits(%d)", n)
				gv, ge = got.ReadBits(n)
				wv, we = want.ReadBits(n)
			}
		case 2, 3:
			call = "ReadUE()"
			gv, ge = got.ReadUE()
			wv, we = want.ReadUE()
		case 4, 5:
			call = "ReadSE()"
			gs, ge = got.ReadSE()
			ws, we = want.ReadSE()
		}
		if gv != wv || gs != ws || errString(ge) != errString(we) || errors.Is(ge, ErrShortBuffer) != errors.Is(we, ErrShortBuffer) {
			t.Fatalf("op %d %s: got (%d, %d, %v), reference (%d, %d, %v)", i, call, gv, gs, ge, wv, ws, we)
		}
		if got.BitsRead() != want.BitsRead() || got.Remaining() != want.Remaining() {
			t.Fatalf("op %d %s: position %d (%d left), reference %d (%d left)",
				i, call, got.BitsRead(), got.Remaining(), want.BitsRead(), want.Remaining())
		}
	}
}

// TestReaderMatchesReferenceCodes reads well-formed Exp-Golomb streams of
// every code length, from every bit offset, and past their end.
func TestReaderMatchesReferenceCodes(t *testing.T) {
	for lead := uint(0); lead < 8; lead++ {
		w := NewWriter(1024)
		w.WriteBits(0x5A, lead)
		for lz := uint(0); lz < 64; lz++ {
			w.WriteUE(1<<lz - 1)
			if lz > 0 {
				w.WriteUE(1<<(lz+1) - 2)
			}
			w.WriteSE(int64(lz) - 31)
		}
		buf := w.Bytes()
		ops := []byte{byte(lead<<3 | 1)}
		for i := 0; i < 4*64; i++ {
			ops = append(ops, 2)
		}
		replayOps(t, buf, ops)
		// The same stream read as signed codes, then as raw bits of every width.
		ops = ops[:1]
		for i := 0; i < 4*64; i++ {
			ops = append(ops, 4)
		}
		replayOps(t, buf, ops)
		ops = ops[:1]
		for n := byte(0); n < 32; n++ {
			ops = append(ops, n<<3|1, n<<3|7, 1<<3|6, 3<<3|6, 6)
		}
		replayOps(t, buf, ops)
	}
}

// TestReaderMatchesReferenceLongCodes covers the codes the window cannot
// take in one shift: prefixes of 29 to 64 zeros (the last one "too long"),
// a prefix or suffix cut by the end of the buffer, and zeros up to the end.
func TestReaderMatchesReferenceLongCodes(t *testing.T) {
	ue := []byte{2, 2, 2, 2}
	for zeros := 28; zeros <= 66; zeros++ {
		for _, tail := range [][]byte{{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, {0x80}, {0xC0}, nil} {
			for lead := 0; lead < 8; lead++ {
				// lead one-bits (each a ReadUE of 0), then the zeros, then tail.
				w := NewWriter(32)
				w.WriteBits(1<<lead-1, uint(lead))
				for z := zeros; z > 0; z -= min(z, 32) {
					w.WriteBits(0, uint(min(z, 32)))
				}
				for _, b := range tail {
					w.WriteBits(uint64(b), 8)
				}
				ops := make([]byte, lead, lead+4)
				for i := range ops {
					ops[i] = 2
				}
				replayOps(t, w.Bytes(), append(ops, ue...))
			}
		}
	}
}

// TestReaderMatchesReferenceRandom runs random call sequences over random
// buffers of every short length and some long ones.
func TestReaderMatchesReferenceRandom(t *testing.T) {
	var s uint64 = 27
	next := func() byte {
		s = s*6364136223846793005 + 1442695040888963407
		return byte(s >> 56)
	}
	for trial := 0; trial < 3000; trial++ {
		buf := make([]byte, trial%40)
		if trial%10 == 0 {
			buf = make([]byte, 200+trial%64)
		}
		sparse := trial%3 == 0 // mostly zero bytes: long Exp-Golomb prefixes
		for i := range buf {
			buf[i] = next()
			if sparse && buf[i] > 16 {
				buf[i] = 0
			}
		}
		ops := make([]byte, 1+trial%97)
		for i := range ops {
			ops[i] = next()
		}
		replayOps(t, buf, ops)
	}
}

// FuzzReaderMatchesReference reads the input's first byte as a split point:
// the bytes before it are the call sequence, the rest the bitstream.
func FuzzReaderMatchesReference(f *testing.F) {
	w := NewWriter(64)
	for v := uint64(0); v < 40; v++ {
		w.WriteUE(v * v * v)
	}
	f.Add(append([]byte{8, 2, 2, 4, 4, 1, 7, 6, 255}, w.Bytes()...))
	f.Add([]byte{4, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 0xFF, 0xF9, 6, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		split := 1 + int(data[0])
		if split > len(data) {
			split = len(data)
		}
		replayOps(t, data[split:], data[1:split])
	})
}
