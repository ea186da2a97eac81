package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"sieve/internal/codec"
)

// refBuffer is the flat Buffer this package shipped before the chunked one,
// kept verbatim (renamed) as the oracle the chunked Buffer is tested
// against: every growing Write reallocates to the new end and copies the
// whole stream. Its ReadAt panics on a negative offset, so the harness
// never hands it one.
type refBuffer struct {
	data []byte
	pos  int64
}

// Write appends or overwrites at the current position.
func (b *refBuffer) Write(p []byte) (int, error) {
	end := b.pos + int64(len(p))
	if end > int64(len(b.data)) {
		grown := make([]byte, end)
		copy(grown, b.data)
		b.data = grown
	}
	copy(b.data[b.pos:end], p)
	b.pos = end
	return len(p), nil
}

// Seek implements io.Seeker.
func (b *refBuffer) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = b.pos + offset
	case io.SeekEnd:
		abs = int64(len(b.data)) + offset
	default:
		return 0, fmt.Errorf("container: invalid whence %d", whence)
	}
	if abs < 0 {
		return 0, errors.New("container: negative seek position")
	}
	b.pos = abs
	return abs, nil
}

// ReadAt implements io.ReaderAt.
func (b *refBuffer) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(b.data)) {
		return 0, io.EOF
	}
	n := copy(p, b.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Bytes returns the underlying buffer (aliased, not copied).
func (b *refBuffer) Bytes() []byte { return b.data }

// Size returns the buffer length in bytes.
func (b *refBuffer) Size() int64 { return int64(len(b.data)) }

// errClass buckets an error the way callers of io.ReaderAt and io.Seeker
// branch on it.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, io.EOF):
		return "EOF"
	}
	return "other"
}

// maxOpsSize caps how far an op sequence grows the buffers, so one fuzz
// input stays a few chunks.
const maxOpsSize = 8 * chunkSize

// replayBufferOps runs the op sequence ops encodes on a Buffer and on the
// reference and fails at the first op whose n, error class, bytes, position
// or Size differ. Each op is four bytes k, a, b, c; k%4 picks the call and
// k>>2%4 its mode:
//
//	0 Write: 0 bytes, 1 byte, c bytes, or more than one chunk
//	1 Seek(int16(a<<8|b), whence k>>2%4): whence 3 is invalid; past the end and negative both reached
//	2 ReadAt anywhere: offset int16(a<<8|b) (negative half the time), c*97 bytes
//	3 ReadAt at an edge: across chunk boundary 1+a%6, exactly to the end, or past it
func replayBufferOps(t *testing.T, ops []byte) {
	t.Helper()
	var got Buffer
	var want refBuffer
	seq := uint32(0)
	for i := 0; i+4 <= len(ops); i += 4 {
		k, a, b, c := ops[i], ops[i+1], ops[i+2], ops[i+3]
		mode := k >> 2 % 4
		var call string
		var gn, wn int
		var gpos, wpos int64
		var ge, we error
		var gp, wp []byte
		switch k % 4 {
		case 0:
			n := [4]int{0, 1, int(c), chunkSize + int(c)*97}[mode]
			if want.pos+int64(n) > maxOpsSize {
				continue
			}
			p := make([]byte, n)
			for j := range p {
				// Never zero, so an un-zeroed gap shows, and aperiodic at
				// chunk multiples, so a byte read from the wrong chunk does.
				seq++
				p[j] = byte(seq^seq>>8^seq>>16) | 1
			}
			call = fmt.Sprintf("Write(%d bytes at %d)", n, want.pos)
			gn, ge = got.Write(p)
			wn, we = want.Write(p)
		case 1:
			off := int64(int16(uint16(a)<<8 | uint16(b)))
			call = fmt.Sprintf("Seek(%d, %d)", off, mode)
			gpos, ge = got.Seek(off, int(mode))
			wpos, we = want.Seek(off, int(mode))
		case 2, 3:
			off, n := int64(int16(uint16(a)<<8|uint16(b))), int(c)*97
			size := want.Size()
			if k%4 == 3 {
				switch mode {
				case 0, 1: // straddle a chunk boundary
					off, n = int64(1+a%6)*chunkSize-int64(c), 2*int(c)+1
				case 2: // exactly to the end
					n = int(min(int64(uint16(b)<<8|uint16(c)), size))
					off = size - int64(n)
				case 3: // past the end
					off, n = max(size-int64(c), 0), int(c)+1+int(a)
				}
			}
			call = fmt.Sprintf("ReadAt(%d bytes, %d)", n, off)
			gp, wp = make([]byte, n), make([]byte, n)
			gn, ge = got.ReadAt(gp, off)
			if off < 0 {
				// The reference panics here; io.ReaderAt wants an error.
				if gn != 0 || errClass(ge) != "other" {
					t.Fatalf("op %d %s: got (%d, %v), want (0, a non-EOF error)", i/4, call, gn, ge)
				}
				continue
			}
			wn, we = want.ReadAt(wp, off)
		}
		if gn != wn || gpos != wpos || errClass(ge) != errClass(we) || !bytes.Equal(gp, wp) {
			t.Fatalf("op %d %s: got (%d, pos %d, %v), reference (%d, pos %d, %v)", i/4, call, gn, gpos, ge, wn, wpos, we)
		}
		if got.Size() != want.Size() {
			t.Fatalf("op %d %s: Size %d, reference %d", i/4, call, got.Size(), want.Size())
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("contents differ after %d ops (%d bytes)", len(ops)/4, want.Size())
	}
}

// TestBufferMatchesReferenceEdges walks the cases each guard is for: reads
// straddling every chunk boundary, a seek past the end then a write, an
// overwrite that crosses the end, and exact-fit reads at every size.
func TestBufferMatchesReferenceEdges(t *testing.T) {
	var ops []byte
	op := func(k, a, b, c byte) { ops = append(ops, k, a, b, c) }
	op(0, 0, 0, 0)      // Write 0 bytes to an empty buffer
	op(3<<2|3, 0, 0, 5) // ReadAt past the end of an empty buffer
	op(2<<2|3, 0, 0, 0) // exact-fit ReadAt of nothing
	op(3<<2, 0, 0, 200) // Write more than one chunk
	op(1<<2, 0, 0, 0)   // Write 1 byte
	for c := byte(0); c < 255; c += 15 {
		op(3, 0, 0, c)      // ReadAt straddling the first boundary
		op(2<<2|3, 0, 0, c) // exact fit
		op(3<<2|3, 0, 0, c) // past the end
		op(2<<2|3, 0, 1, c) // exact fit, longer
	}
	op(1|2<<2, 0x40, 0, 0)    // SeekEnd +16384: past the end
	op(1<<2, 0, 0, 0)         // Write 1 byte: leaves a zero gap
	op(1|2<<2, 0xff, 0xf0, 0) // SeekEnd -16: an overwrite that crosses the end
	op(2<<2, 0, 0, 40)
	op(1|3<<2, 0, 0, 0)  // invalid whence
	op(1, 0x80, 0, 0)    // SeekStart negative
	op(2, 0xff, 0xff, 3) // ReadAt at offset -1
	for k := byte(0); k < 6; k++ {
		op(3, k, 0, 1)
		op(3, k, 0, 130)
	}
	op(1|1<<2, 0x7f, 0xff, 0) // SeekCurrent far past the end
	op(0, 0, 0, 0)            // Write 0 bytes there: extends Size
	op(2<<2|3, 0, 0x40, 0)
	replayBufferOps(t, ops)
}

// FuzzBufferMatchesReference runs arbitrary op sequences (see
// replayBufferOps) on the chunked Buffer and the flat reference.
func FuzzBufferMatchesReference(f *testing.F) {
	f.Add([]byte{12, 0, 0, 200, 4, 0, 0, 0, 3, 0, 0, 1, 3, 1, 0, 7, 11, 0, 0, 9, 15, 0, 0, 3})
	f.Add([]byte{9, 0x40, 0, 0, 4, 0, 0, 0, 9, 0xff, 0xf0, 0, 8, 0, 0, 40, 2, 0xff, 0xff, 3})
	f.Add([]byte{12, 0, 0, 255, 12, 0, 0, 255, 3, 2, 0, 128, 11, 0, 0x80, 0, 5, 0x7f, 0xff, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*64 {
			ops = ops[:4*64]
		}
		replayBufferOps(t, ops)
	})
}

// svfLayout assembles the SVF bytes of a stream from the format description
// alone — header, payloads, then one index record per frame — as the
// per-record Close this package used to have laid them out.
func svfLayout(info StreamInfo, types []codec.FrameType, payloads [][]byte) []byte {
	hdr := make([]byte, headerSize)
	binary.BigEndian.PutUint32(hdr[0:], magic)
	binary.BigEndian.PutUint16(hdr[4:], version)
	binary.BigEndian.PutUint32(hdr[8:], uint32(info.Width))
	binary.BigEndian.PutUint32(hdr[12:], uint32(info.Height))
	binary.BigEndian.PutUint32(hdr[16:], uint32(info.FPS))
	binary.BigEndian.PutUint32(hdr[20:], uint32(info.Quality))
	binary.BigEndian.PutUint32(hdr[24:], uint32(info.GOPSize))
	binary.BigEndian.PutUint64(hdr[28:], math.Float64bits(info.Scenecut))
	binary.BigEndian.PutUint32(hdr[36:], uint32(len(payloads)))
	out := hdr
	for _, p := range payloads {
		out = append(out, p...)
	}
	binary.BigEndian.PutUint64(out[40:], uint64(len(out)))
	off := uint64(headerSize)
	for i, p := range payloads {
		var rec [indexRecSize]byte
		rec[0] = byte(types[i])
		binary.BigEndian.PutUint32(rec[1:], uint32(len(p)))
		binary.BigEndian.PutUint64(rec[5:], off)
		out = append(out, rec[:]...)
		off += uint64(len(p))
	}
	return out
}

// TestWriterStreamsMatchReference writes the same frames through a Writer
// into the chunked Buffer and into the reference, and checks both against
// the format's layout: empty streams, one-byte frames, frames that end
// exactly on a chunk boundary, and frames larger than a chunk.
func TestWriterStreamsMatchReference(t *testing.T) {
	shapes := map[string][]int{
		"empty":               nil,
		"one byte":            {1},
		"small":               {7, 1, 300, 2, 2, 90},
		"chunk aligned":       {chunkSize - headerSize, chunkSize, 1, chunkSize - 1 - indexRecSize},
		"larger than a chunk": {3*chunkSize + 5, 1, 2*chunkSize - 1, 40000},
		"many":                make([]int, 3000),
	}
	for i := range shapes["many"] {
		shapes["many"][i] = 1 + i*37%211
	}
	info := testInfo()
	for name, sizes := range shapes {
		var got Buffer
		var want refBuffer
		gw, err := NewWriter(&got, info)
		if err != nil {
			t.Fatal(err)
		}
		ww, err := NewWriter(&want, info)
		if err != nil {
			t.Fatal(err)
		}
		types := make([]codec.FrameType, len(sizes))
		payloads := make([][]byte, len(sizes))
		for i, n := range sizes {
			types[i] = codec.FrameP
			if i%5 == 0 {
				types[i] = codec.FrameI
			}
			payloads[i] = make([]byte, n)
			for j := range payloads[i] {
				payloads[i][j] = byte(i*131 + j*7 + 1)
			}
			if err := gw.WriteFrame(types[i], payloads[i]); err != nil {
				t.Fatal(err)
			}
			if err := ww.WriteFrame(types[i], payloads[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := gw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ww.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: chunked and reference buffers hold different streams (%d vs %d bytes)", name, got.Size(), want.Size())
		}
		if layout := svfLayout(info, types, payloads); !bytes.Equal(want.Bytes(), layout) {
			t.Fatalf("%s: stream differs from the SVF layout (%d vs %d bytes)", name, want.Size(), len(layout))
		}
	}
}
