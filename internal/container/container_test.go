package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"sieve/internal/codec"
	"sieve/internal/frame"
)

// bufferOf returns a Buffer holding a copy of data.
func bufferOf(data []byte) *Buffer {
	var b Buffer
	b.Write(data)
	return &b
}

func testInfo() StreamInfo {
	return StreamInfo{
		Width: 64, Height: 48, FPS: 30,
		Quality: 85, GOPSize: 100, Scenecut: 123.5,
	}
}

// writeTestStream writes n frames with deterministic pseudo-payloads;
// every gop-th frame is an I-frame.
func writeTestStream(t *testing.T, buf *Buffer, n, gop int) []FrameMeta {
	t.Helper()
	w, err := NewWriter(buf, testInfo())
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	rng := rand.New(rand.NewSource(42))
	want := make([]FrameMeta, 0, n)
	for i := 0; i < n; i++ {
		ft := codec.FrameP
		size := 50 + rng.Intn(100)
		if i%gop == 0 {
			ft = codec.FrameI
			size = 500 + rng.Intn(500)
		}
		payload := make([]byte, size)
		rng.Read(payload)
		if err := w.WriteFrame(ft, payload); err != nil {
			t.Fatalf("WriteFrame %d: %v", i, err)
		}
		want = append(want, FrameMeta{Index: i, Type: ft, Size: size})
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return want
}

func TestRoundTripMetadata(t *testing.T) {
	var buf Buffer
	want := writeTestStream(t, &buf, 200, 25)

	r, err := NewReader(&buf, buf.Size())
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	info := r.Info()
	if info.Width != 64 || info.Height != 48 || info.FPS != 30 ||
		info.Quality != 85 || info.GOPSize != 100 || info.Scenecut != 123.5 {
		t.Fatalf("info mismatch: %+v", info)
	}
	if info.FrameCount != 200 || r.NumFrames() != 200 {
		t.Fatalf("frame count = %d / %d", info.FrameCount, r.NumFrames())
	}
	for i, w := range want {
		m := r.Meta(i)
		if m.Index != i || m.Type != w.Type || m.Size != w.Size {
			t.Fatalf("meta %d = %+v, want type %v size %d", i, m, w.Type, w.Size)
		}
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	var buf Buffer
	w, err := NewWriter(&buf, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		{1},
		{2, 3, 4},
		make([]byte, 1000),
	}
	rand.New(rand.NewSource(7)).Read(payloads[2])
	for i, p := range payloads {
		ft := codec.FrameP
		if i == 0 {
			ft = codec.FrameI
		}
		if err := w.WriteFrame(ft, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf, buf.Size())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range payloads {
		got, err := r.Payload(i)
		if err != nil {
			t.Fatalf("Payload(%d): %v", i, err)
		}
		if string(got) != string(want) {
			t.Fatalf("payload %d mismatch: %d vs %d bytes", i, len(got), len(want))
		}
	}
	if _, err := r.Payload(3); err == nil {
		t.Fatal("out-of-range payload read should fail")
	}
	if _, err := r.Payload(-1); err == nil {
		t.Fatal("negative payload read should fail")
	}
}

func TestIFrameSeek(t *testing.T) {
	var buf Buffer
	writeTestStream(t, &buf, 300, 30)
	r, err := NewReader(&buf, buf.Size())
	if err != nil {
		t.Fatal(err)
	}
	ifr := r.IFrames()
	if len(ifr) != 10 {
		t.Fatalf("IFrames len = %d, want 10", len(ifr))
	}
	for _, m := range ifr {
		if m.Type != codec.FrameI || m.Index%30 != 0 {
			t.Fatalf("unexpected I-frame record %+v", m)
		}
	}
}

func TestScanMetaEarlyStop(t *testing.T) {
	var buf Buffer
	writeTestStream(t, &buf, 100, 10)
	r, err := NewReader(&buf, buf.Size())
	if err != nil {
		t.Fatal(err)
	}
	visited := 0
	r.ScanMeta(func(m FrameMeta) bool {
		visited++
		return visited < 7
	})
	if visited != 7 {
		t.Fatalf("visited %d records, want 7", visited)
	}
}

func TestPayloadBytes(t *testing.T) {
	var buf Buffer
	want := writeTestStream(t, &buf, 50, 5)
	r, err := NewReader(&buf, buf.Size())
	if err != nil {
		t.Fatal(err)
	}
	var all, iOnly int64
	for _, m := range want {
		all += int64(m.Size)
		if m.Type == codec.FrameI {
			iOnly += int64(m.Size)
		}
	}
	if got := r.PayloadBytes(nil); got != all {
		t.Fatalf("PayloadBytes(nil) = %d, want %d", got, all)
	}
	got := r.PayloadBytes(func(m FrameMeta) bool { return m.Type == codec.FrameI })
	if got != iOnly {
		t.Fatalf("PayloadBytes(I) = %d, want %d", got, iOnly)
	}
	if iOnly >= all {
		t.Fatal("test stream should have P payload too")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.svf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(codec.FrameI, []byte("iframe-payload")); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(codec.FrameP, []byte("p")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, closer, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer closer.Close()
	if r.NumFrames() != 2 {
		t.Fatalf("NumFrames = %d", r.NumFrames())
	}
	got, err := r.Payload(0)
	if err != nil || string(got) != "iframe-payload" {
		t.Fatalf("payload 0 = %q, %v", got, err)
	}
}

func TestRejectBadMagic(t *testing.T) {
	var buf Buffer
	if _, err := buf.Write(make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(&buf, buf.Size()); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestRejectTruncated(t *testing.T) {
	var buf Buffer
	writeTestStream(t, &buf, 10, 5)
	// Cut the index off.
	data := buf.Bytes()
	short := bufferOf(data[:len(data)-20])
	if _, err := NewReader(short, short.Size()); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Too short for even a header.
	tiny := bufferOf(data[:10])
	if _, err := NewReader(tiny, tiny.Size()); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestWriterValidation(t *testing.T) {
	var buf Buffer
	if _, err := NewWriter(&buf, StreamInfo{Width: 0, Height: 10, FPS: 30}); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewWriter(&buf, StreamInfo{Width: 10, Height: 10, FPS: 0}); err == nil {
		t.Fatal("zero fps accepted")
	}
	w, err := NewWriter(&buf, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(codec.FrameI, nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(codec.FrameI, []byte("x")); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

func TestCodecParamsFromInfo(t *testing.T) {
	si := testInfo()
	p := si.CodecParams()
	if p.Width != si.Width || p.Height != si.Height || p.Quality != si.Quality {
		t.Fatalf("CodecParams mismatch: %+v", p)
	}
	// Zero GOP must still yield decodable params.
	si.GOPSize = 0
	if si.CodecParams().GOPSize < 1 {
		t.Fatal("CodecParams GOPSize must be >= 1")
	}
}

func TestDuration(t *testing.T) {
	si := testInfo()
	si.FrameCount = 90
	if d := si.Duration(); d != 3 {
		t.Fatalf("Duration = %v, want 3", d)
	}
	si.FPS = 0
	if d := si.Duration(); d != 0 {
		t.Fatalf("Duration with fps 0 = %v, want 0", d)
	}
}

func TestBufferSeekSemantics(t *testing.T) {
	var b Buffer
	if _, err := b.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Seek(0, 99); err == nil {
		t.Fatal("invalid whence accepted")
	}
	if _, err := b.Seek(-10, 0); err == nil {
		t.Fatal("negative position accepted")
	}
	if pos, err := b.Seek(-2, 2); err != nil || pos != 3 {
		t.Fatalf("SeekEnd: pos=%d err=%v", pos, err)
	}
	if _, err := b.Write([]byte("XX")); err != nil {
		t.Fatal(err)
	}
	if string(b.Bytes()) != "helXX" {
		t.Fatalf("overwrite produced %q", b.Bytes())
	}
	var p [2]byte
	if n, err := b.ReadAt(p[:], 3); err != nil || n != 2 || string(p[:]) != "XX" {
		t.Fatalf("ReadAt = %d %v %q", n, err, p)
	}
	if _, err := b.ReadAt(p[:], 100); err == nil {
		t.Fatal("ReadAt past end should return EOF")
	}
}

// io.ReaderAt requires an error for a negative offset; the flat Buffer
// sliced data[off:] and panicked.
func TestBufferReadAtNegativeOffset(t *testing.T) {
	b := bufferOf([]byte("hello"))
	p := make([]byte, 3)
	n, err := b.ReadAt(p, -1)
	if n != 0 || err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt(p, -1) = %d, %v; want 0 and a non-EOF error", n, err)
	}
}

// A stream the Writer closes must be one its Reader opens, so WriteFrame
// refuses the frame past maxFrameCount and a payload the 32-bit size field
// cannot hold, before writing a byte of it.
func TestWriterRefusesUnreadableStreams(t *testing.T) {
	var buf Buffer
	w, err := NewWriter(&buf, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	w.frames = maxFrameCount - 1
	if err := w.WriteFrame(codec.FrameI, []byte("last")); err != nil {
		t.Fatalf("frame %d (the limit) refused: %v", maxFrameCount, err)
	}
	size := buf.Size()
	if err := w.WriteFrame(codec.FrameP, []byte("one too many")); err == nil {
		t.Fatalf("frame %d accepted; NewReader rejects more than %d", maxFrameCount+1, maxFrameCount)
	}
	if buf.Size() != size || w.FrameCount() != maxFrameCount || len(w.index) != indexRecSize {
		t.Fatalf("refused frame was written: size %d → %d, %d frames, %d index bytes", size, buf.Size(), w.FrameCount(), len(w.index))
	}
	// A 4 GiB payload is not allocated here: admit sees only its length.
	// Only a 64-bit int holds 2^32; on a 32-bit platform no payload can be
	// that long.
	if strconv.IntSize == 64 {
		w.frames = 0
		maxSize := uint64(math.MaxUint32)
		if err := w.admit(int(maxSize)); err != nil {
			t.Fatalf("payload of 2^32-1 bytes refused: %v", err)
		}
		if err := w.admit(int(maxSize + 1)); err == nil {
			t.Fatal("payload of 2^32 bytes accepted; its index record would truncate the size")
		}
	}
}

// countingSink counts the Write calls reaching a Buffer.
type countingSink struct {
	Buffer
	writes int
}

func (c *countingSink) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// TestWriterAllocIsLinear pins the container's cost at O(payload) per frame
// at any stream length: every byte allocated writing a stream of 1 KiB
// frames — chunks, the index, the header — stays within a tenth of the
// stream plus one chunk. The flat buffer copied the whole stream on every
// frame and the index record by record, and fails here at 1 000 frames.
// Close writes the index with one Write, then patches the header.
func TestWriterAllocIsLinear(t *testing.T) {
	payload := make([]byte, 1024)
	for _, frames := range []int{1000, 10000} {
		sink := &countingSink{}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w, err := NewWriter(sink, testInfo())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < frames; i++ {
			if err := w.WriteFrame(codec.FrameP, payload); err != nil {
				t.Fatal(err)
			}
		}
		writes := sink.writes
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		stream := sink.Size()
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d frames: allocated %d bytes for a %d-byte stream (%.3fx)", frames, alloc, stream, float64(alloc)/float64(stream))
		if float64(alloc) > 1.1*float64(stream)+chunkSize {
			t.Fatalf("%d frames: allocated %.2fx the stream; want <= 1.1x + one chunk", frames, float64(alloc)/float64(stream))
		}
		if n := sink.writes - writes; n != 2 {
			t.Fatalf("%d frames: Close made %d writes; want one for the index and one header patch", frames, n)
		}
	}
}

// BenchmarkStreamWrite writes streams of edge_quiet's mean payload (26 KB)
// through a Writer into a Buffer. ns/frame and B/frame must read the same
// at every length: a stream costs its payload, not its length.
func BenchmarkStreamWrite(b *testing.B) {
	payload := make([]byte, 26<<10)
	for _, frames := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var buf Buffer
				w, err := NewWriter(&buf, testInfo())
				if err != nil {
					b.Fatal(err)
				}
				for f := 0; f < frames; f++ {
					if err := w.WriteFrame(codec.FrameP, payload); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * float64(frames)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/frame")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/frame")
		})
	}
}

// Integration: encode a real video through the codec into a container and
// decode only its I-frames.
func TestEndToEndWithCodec(t *testing.T) {
	p := codec.Params{Width: 48, Height: 32, Quality: 85, GOPSize: 6, Scenecut: 0}
	enc, err := codec.NewEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf Buffer
	w, err := NewWriter(&buf, StreamInfo{
		Width: 48, Height: 32, FPS: 30, Quality: 85, GOPSize: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 18; i++ {
		f := frame.NewYUV(48, 32)
		rng.Read(f.Y.Pix)
		f.Cb.Fill(128)
		f.Cr.Fill(128)
		ef, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteEncoded(ef); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf, buf.Size())
	if err != nil {
		t.Fatal(err)
	}
	ifr := r.IFrames()
	if len(ifr) != 3 {
		t.Fatalf("want 3 I-frames (GOP 6 over 18), got %d", len(ifr))
	}
	for _, m := range ifr {
		payload, err := r.Payload(m.Index)
		if err != nil {
			t.Fatal(err)
		}
		img, err := codec.DecodeIFrame(r.Info().CodecParams(), payload)
		if err != nil {
			t.Fatalf("DecodeIFrame(%d): %v", m.Index, err)
		}
		if img.W != 48 || img.H != 32 {
			t.Fatalf("decoded %dx%d", img.W, img.H)
		}
	}
}

func BenchmarkIndexScan(b *testing.B) {
	var buf Buffer
	w, err := NewWriter(&buf, testInfo())
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	for i := 0; i < 10000; i++ {
		ft := codec.FrameP
		if i%100 == 0 {
			ft = codec.FrameI
		}
		if err := w.WriteFrame(ft, payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	r, err := NewReader(&buf, buf.Size())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		r.ScanMeta(func(m FrameMeta) bool {
			if m.Type == codec.FrameI {
				n++
			}
			return true
		})
		if n != 100 {
			b.Fatal("bad scan")
		}
	}
}

// overflowStream is a valid one-frame stream whose index record is then
// rewritten to Offset = 2⁶³−16, Size = 2³²−1: the sum wraps negative and
// once passed a bounds check by addition, so Payload(0) would have made a
// 4 GiB buffer.
func overflowStream(t testing.TB) []byte {
	var buf Buffer
	w, err := NewWriter(&buf, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(codec.FrameI, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	rec := data[len(data)-indexRecSize:]
	binary.BigEndian.PutUint32(rec[1:], 0xFFFFFFFF)
	binary.BigEndian.PutUint64(rec[5:], 0x7FFFFFFFFFFFFFF0)
	return data
}

func TestRejectOverflowingIndex(t *testing.T) {
	data := overflowStream(t)
	if _, err := NewReader(bufferOf(data), int64(len(data))); err == nil {
		t.Fatal("index record at 2^63-16 with size 2^32-1 accepted")
	}
	// An index offset near 2⁶³ wraps the index-size sum the same way.
	data = overflowStream(t)
	binary.BigEndian.PutUint64(data[40:], 0x7FFFFFFFFFFFFFFF)
	if _, err := NewReader(bufferOf(data), int64(len(data))); !errors.Is(err, ErrTruncated) {
		t.Fatalf("index offset 2^63-1: err = %v, want ErrTruncated", err)
	}
}

// FuzzContainerReader opens arbitrary bytes as an SVF stream. It must never
// panic, and a stream it accepts must keep every index record inside
// [header, index), so no Payload call can ask for more bytes than the stream
// has.
func FuzzContainerReader(f *testing.F) {
	var buf Buffer
	w, err := NewWriter(&buf, testInfo())
	if err != nil {
		f.Fatal(err)
	}
	for i, p := range []string{"iframe", "p1", "p2", "iframe2", "p3"} {
		ft := codec.FrameP
		if i%3 == 0 {
			ft = codec.FrameI
		}
		if err := w.WriteFrame(ft, []byte(p)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(overflowStream(f))
	f.Add(buf.Bytes()[:headerSize])
	f.Fuzz(func(t *testing.T, data []byte) {
		size := int64(len(data))
		r, err := NewReader(bufferOf(data), size)
		if err != nil {
			return
		}
		indexOffset := int64(binary.BigEndian.Uint64(data[40:]))
		if indexOffset < headerSize || indexOffset > size {
			t.Fatalf("accepted index offset %d in a %d-byte stream", indexOffset, size)
		}
		for i := 0; i < r.NumFrames(); i++ {
			m := r.Meta(i)
			if m.Offset < headerSize || m.Offset > indexOffset || int64(m.Size) > indexOffset-m.Offset {
				t.Fatalf("record %d [%d, +%d) outside [%d, %d)", i, m.Offset, m.Size, headerSize, indexOffset)
			}
			if i >= 8 {
				continue // records may overlap: reading every one is quadratic
			}
			p, err := r.Payload(i)
			if err == nil && len(p) != m.Size {
				t.Fatalf("Payload(%d) returned %d bytes, record says %d", i, len(p), m.Size)
			}
		}
	})
}
