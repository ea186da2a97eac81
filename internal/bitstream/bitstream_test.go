package bitstream

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBits(t *testing.T) {
	w := NewWriter(16)
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 5)
	w.WriteBits(0xDEADBEEF, 32)
	b := w.Bytes()

	r := NewReader(b)
	got, err := r.ReadBits(3)
	if err != nil || got != 0b101 {
		t.Fatalf("ReadBits(3) = %v, %v; want 5", got, err)
	}
	got, err = r.ReadBits(8)
	if err != nil || got != 0xFF {
		t.Fatalf("ReadBits(8) = %v, %v; want 255", got, err)
	}
	got, err = r.ReadBits(5)
	if err != nil || got != 0 {
		t.Fatalf("ReadBits(5) = %v, %v; want 0", got, err)
	}
	got, err = r.ReadBits(32)
	if err != nil || got != 0xDEADBEEF {
		t.Fatalf("ReadBits(32) = %#x, %v; want 0xDEADBEEF", got, err)
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0xFFFF, 4) // only low 4 bits should land
	w.WriteBits(0, 4)
	r := NewReader(w.Bytes())
	got, err := r.ReadBits(4)
	if err != nil || got != 0xF {
		t.Fatalf("got %v, %v; want 0xF", got, err)
	}
}

func Test64BitBoundary(t *testing.T) {
	w := NewWriter(32)
	vals := []uint64{^uint64(0), 0, 0x8000000000000001, 42}
	for _, v := range vals {
		w.WriteBits(v, 64)
	}
	r := NewReader(w.Bytes())
	for i, want := range vals {
		got, err := r.ReadBits(64)
		if err != nil || got != want {
			t.Fatalf("val %d: got %#x, %v; want %#x", i, got, err, want)
		}
	}
}

func TestExpGolombKnownValues(t *testing.T) {
	// Classic table: 0->1, 1->010, 2->011, 3->00100, ...
	cases := []struct {
		v    uint64
		bits int
	}{
		{0, 1}, {1, 3}, {2, 3}, {3, 5}, {4, 5}, {5, 5}, {6, 5}, {7, 7}, {62, 11},
	}
	for _, c := range cases {
		w := NewWriter(8)
		w.WriteUE(c.v)
		if w.BitLen() != c.bits {
			t.Errorf("WriteUE(%d) used %d bits, want %d", c.v, w.BitLen(), c.bits)
		}
		r := NewReader(w.Bytes())
		got, err := r.ReadUE()
		if err != nil || got != c.v {
			t.Errorf("ReadUE after WriteUE(%d) = %v, %v", c.v, got, err)
		}
	}
}

// TestWriteUEOneFieldMatchesTwo holds the single-field WriteUE to the
// prefix-then-suffix form it replaced, bit for bit, at every code length —
// including the lengths past 63 bits, which still take two fields — from a
// byte-aligned and from an odd starting position.
func TestWriteUEOneFieldMatchesTwo(t *testing.T) {
	for lz := uint(0); lz < 63; lz++ {
		for _, x := range []uint64{1 << lz, 1<<(lz+1) - 1, 1<<lz | 0x5555555555555555&(1<<lz-1)} {
			v := x - 1
			for _, lead := range []uint{0, 3} {
				got, want := NewWriter(32), NewWriter(32)
				got.WriteBits(5, lead)
				want.WriteBits(5, lead)
				got.WriteUE(v)
				want.WriteBits(0, lz)
				want.WriteBits(x, lz+1)
				if got.BitLen() != want.BitLen() || !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("WriteUE(%d) after %d bits = % x (%d bits), want % x (%d bits)",
						v, lead, got.Bytes(), got.BitLen(), want.Bytes(), want.BitLen())
				}
				r := NewReader(got.Bytes())
				if _, err := r.ReadBits(lead); err != nil {
					t.Fatal(err)
				}
				if back, err := r.ReadUE(); err != nil || back != v {
					t.Fatalf("ReadUE after WriteUE(%d) = %d, %v", v, back, err)
				}
			}
		}
	}
}

// TestWriteBitsRefusesWidth: WriteBits panics on a width above 64, with
// the width in the message, and writes nothing, whether or not the window
// is empty.
func TestWriteBitsRefusesWidth(t *testing.T) {
	for _, pre := range []uint{0, 1, 63} {
		for _, n := range []uint{65, 128, math.MaxUint} {
			w := NewWriter(16)
			w.WriteBits(0, pre)
			func() {
				defer func() {
					err, _ := recover().(error)
					if want := fmt.Sprintf("bitstream: WriteBits n=%d out of range", n); err == nil || err.Error() != want {
						t.Fatalf("after %d bits, WriteBits(·, %d) recovered %v, want %q", pre, n, err, want)
					}
				}()
				w.WriteBits(1, n)
			}()
			if w.BitLen() != int(pre) {
				t.Fatalf("after %d bits, the refused WriteBits(·, %d) left BitLen %d", pre, n, w.BitLen())
			}
		}
	}
}

// TestExpGolombRange pins the range of the Exp-Golomb writers: WriteUE and
// WriteSE refuse, with errNoCode, the one value each that no Reader can read
// back (its code would start with 64 zeros) — before the fix WriteSE wrote
// MinInt64 as the code for 0 and WriteUE(MaxUint64) panicked inside
// WriteBits — and the extremes next to them round-trip.
func TestExpGolombRange(t *testing.T) {
	refuses := func(name string, write func(w *Writer)) {
		t.Helper()
		w := NewWriter(16)
		defer func() {
			t.Helper()
			err, _ := recover().(error)
			if !errors.Is(err, errNoCode) {
				t.Fatalf("%s: recovered %v, want errNoCode", name, err)
			}
			if w.BitLen() != 0 {
				t.Fatalf("%s wrote %d bits before refusing", name, w.BitLen())
			}
		}()
		write(w)
	}
	refuses("WriteUE(MaxUint64)", func(w *Writer) { w.WriteUE(math.MaxUint64) })
	refuses("WriteSE(MinInt64)", func(w *Writer) { w.WriteSE(math.MinInt64) })

	w := NewWriter(64)
	ues := []uint64{math.MaxUint64 - 1, 1<<63 - 1, 1 << 63, 0}
	ses := []int64{math.MinInt64 + 1, math.MaxInt64, 1 << 62, -1 << 62, 1<<62 - 1, 0}
	for _, v := range ues {
		w.WriteUE(v)
	}
	for _, v := range ses {
		w.WriteSE(v)
	}
	r := NewReader(w.Bytes())
	for _, v := range ues {
		if got, err := r.ReadUE(); err != nil || got != v {
			t.Fatalf("ReadUE after WriteUE(%d) = %d, %v", v, got, err)
		}
	}
	for _, v := range ses {
		if got, err := r.ReadSE(); err != nil || got != v {
			t.Fatalf("ReadSE after WriteSE(%d) = %d, %v", v, got, err)
		}
	}
}

func TestExpGolombRoundTripProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		w := NewWriter(len(vals) * 4)
		for _, v := range vals {
			w.WriteUE(uint64(v))
		}
		r := NewReader(w.Bytes())
		for _, v := range vals {
			got, err := r.ReadUE()
			if err != nil || got != uint64(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignedExpGolombRoundTripProperty(t *testing.T) {
	f := func(vals []int32) bool {
		w := NewWriter(len(vals) * 4)
		for _, v := range vals {
			w.WriteSE(int64(v))
		}
		r := NewReader(w.Bytes())
		for _, v := range vals {
			got, err := r.ReadSE()
			if err != nil || got != int64(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixedWidthRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(64) + 1
		widths := make([]uint, n)
		vals := make([]uint64, n)
		w := NewWriter(n)
		for i := range widths {
			widths[i] = uint(rng.Intn(64) + 1)
			vals[i] = rng.Uint64() & ((1 << widths[i]) - 1)
			if widths[i] == 64 {
				vals[i] = rng.Uint64()
			}
			w.WriteBits(vals[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := range widths {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != vals[i] {
				t.Fatalf("trial %d item %d: got %#x, %v; want %#x (width %d)",
					trial, i, got, err, vals[i], widths[i])
			}
		}
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xAB})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if _, err := r.ReadBits(1); err != ErrShortBuffer {
		t.Fatalf("expected ErrShortBuffer, got %v", err)
	}
}

func TestAlignAndLen(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(1, 3)
	if w.Len() != 1 {
		t.Fatalf("Len after 3 bits = %d, want 1", w.Len())
	}
	w.Align()
	if w.BitLen() != 8 {
		t.Fatalf("BitLen after align = %d, want 8", w.BitLen())
	}
	w.WriteBits(0xAA, 8)
	b := w.Bytes()
	if len(b) != 2 || b[0] != 0b00100000 || b[1] != 0xAA {
		t.Fatalf("bytes = %08b", b)
	}
}

func TestReaderAlign(t *testing.T) {
	r := NewReader([]byte{0b10100000, 0xCC})
	if _, err := r.ReadBits(3); err != nil {
		t.Fatal(err)
	}
	r.Align()
	got, err := r.ReadBits(8)
	if err != nil || got != 0xCC {
		t.Fatalf("after align got %#x, %v; want 0xCC", got, err)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.WriteUE(123)
	w.Reset()
	if w.Len() != 0 || w.BitLen() != 0 {
		t.Fatalf("reset writer not empty: len=%d bits=%d", w.Len(), w.BitLen())
	}
	w.WriteUE(5)
	r := NewReader(w.Bytes())
	if got, err := r.ReadUE(); err != nil || got != 5 {
		t.Fatalf("after reset ReadUE = %v, %v; want 5", got, err)
	}
}

func TestRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0, 0})
	if r.Remaining() != 24 {
		t.Fatalf("Remaining = %d, want 24", r.Remaining())
	}
	_, _ = r.ReadBits(5)
	if r.Remaining() != 19 {
		t.Fatalf("Remaining = %d, want 19", r.Remaining())
	}
}

func BenchmarkWriteUE(b *testing.B) {
	w := NewWriter(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			w.Reset()
		}
		w.WriteUE(uint64(i % 1024))
	}
}

func BenchmarkReadUE(b *testing.B) {
	w := NewWriter(1 << 16)
	for i := 0; i < 4096; i++ {
		w.WriteUE(uint64(i % 1024))
	}
	buf := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	r := NewReader(buf)
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			r = NewReader(buf)
		}
		if _, err := r.ReadUE(); err != nil {
			b.Fatal(err)
		}
	}
}
