// Package container implements SVF ("SiEVE Video Format"), the seekable
// stream container the SiEVE I-frame seeker operates on. An SVF stream is a
// fixed header, the concatenated frame payloads, and a trailing per-frame
// index (type/offset/size). The index is the "video metadata" of the paper's
// Section III: the I-frame seeker walks it and touches only I-frame payload
// bytes, never decoding (or even reading) the ~96% of the stream that is
// P-frames.
package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"sieve/internal/codec"
)

const (
	magic         = 0x53564631 // "SVF1"
	version       = 1
	headerSize    = 4 + 2 + 2 + 4 + 4 + 4 + 4 + 4 + 8 + 4 + 8 // see layout below
	indexRecSize  = 1 + 4 + 8
	maxFrameCount = 1 << 28 // sanity bound when reading untrusted headers
)

// StreamInfo describes an encoded stream: the geometry and encoder
// parameters needed to decode it, plus bookkeeping filled in by the reader.
type StreamInfo struct {
	Width, Height int
	// FPS is the nominal capture rate (frames per second).
	FPS int
	// Quality, GOPSize, Scenecut record the semantic encoder parameters the
	// stream was produced with.
	Quality  int
	GOPSize  int
	Scenecut float64
	// FrameCount is populated by Reader (and by Writer.Close).
	FrameCount int
}

// CodecParams converts the stream header into decoder parameters.
func (si StreamInfo) CodecParams() codec.Params {
	gop := si.GOPSize
	if gop < 1 {
		gop = 1
	}
	return codec.Params{
		Width:    si.Width,
		Height:   si.Height,
		Quality:  si.Quality,
		GOPSize:  gop,
		Scenecut: si.Scenecut,
	}
}

// Duration returns the stream length in seconds.
func (si StreamInfo) Duration() float64 {
	if si.FPS <= 0 {
		return 0
	}
	return float64(si.FrameCount) / float64(si.FPS)
}

// FrameMeta is one index record: everything the seeker knows about a frame
// without touching its payload.
type FrameMeta struct {
	Index  int
	Type   codec.FrameType
	Offset int64
	Size   int
}

// Errors returned by the reader.
var (
	ErrBadMagic  = errors.New("container: not an SVF stream")
	ErrTruncated = errors.New("container: truncated stream")
)

// Writer appends frames to an SVF stream. Close writes the index and
// patches the header; the destination must therefore support seeking.
type Writer struct {
	ws     io.WriteSeeker
	info   StreamInfo
	index  []byte // the encoded index records, indexRecSize per frame, as Close writes them
	frames int
	offset int64
	closed bool
}

// NewWriter writes the stream header and returns a Writer.
func NewWriter(ws io.WriteSeeker, info StreamInfo) (*Writer, error) {
	if info.Width <= 0 || info.Height <= 0 {
		return nil, fmt.Errorf("container: invalid dimensions %dx%d", info.Width, info.Height)
	}
	if info.FPS <= 0 {
		return nil, fmt.Errorf("container: invalid fps %d", info.FPS)
	}
	w := &Writer{ws: ws, info: info}
	hdr := w.encodeHeader(0, 0)
	if _, err := ws.Write(hdr); err != nil {
		return nil, fmt.Errorf("container: writing header: %w", err)
	}
	w.offset = headerSize
	return w, nil
}

// Header layout (big-endian):
//
//	u32 magic, u16 version, u16 reserved,
//	u32 width, u32 height, u32 fps, u32 quality, u32 gop,
//	f64 scenecut, u32 frameCount, u64 indexOffset
func (w *Writer) encodeHeader(frameCount uint32, indexOffset uint64) []byte {
	buf := make([]byte, headerSize)
	binary.BigEndian.PutUint32(buf[0:], magic)
	binary.BigEndian.PutUint16(buf[4:], version)
	binary.BigEndian.PutUint32(buf[8:], uint32(w.info.Width))
	binary.BigEndian.PutUint32(buf[12:], uint32(w.info.Height))
	binary.BigEndian.PutUint32(buf[16:], uint32(w.info.FPS))
	binary.BigEndian.PutUint32(buf[20:], uint32(w.info.Quality))
	binary.BigEndian.PutUint32(buf[24:], uint32(w.info.GOPSize))
	binary.BigEndian.PutUint64(buf[28:], math.Float64bits(w.info.Scenecut))
	binary.BigEndian.PutUint32(buf[36:], frameCount)
	binary.BigEndian.PutUint64(buf[40:], indexOffset)
	return buf
}

// WriteFrame appends one encoded frame payload. It refuses, before writing
// anything, a frame the Reader could not index: one past maxFrameCount, or
// a payload whose size does not fit the record's 32-bit size field.
func (w *Writer) WriteFrame(t codec.FrameType, payload []byte) error {
	if err := w.admit(len(payload)); err != nil {
		return err
	}
	if _, err := w.ws.Write(payload); err != nil {
		return fmt.Errorf("container: writing frame %d: %w", w.frames, err)
	}
	var rec [indexRecSize]byte
	rec[0] = byte(t)
	binary.BigEndian.PutUint32(rec[1:], uint32(len(payload)))
	binary.BigEndian.PutUint64(rec[5:], uint64(w.offset))
	w.index = append(w.index, rec[:]...)
	w.frames++
	w.offset += int64(len(payload))
	return nil
}

// admit returns why the next frame, a payload of size bytes, cannot be
// written, or nil.
func (w *Writer) admit(size int) error {
	switch {
	case w.closed:
		return errors.New("container: write after Close")
	case size == 0:
		return errors.New("container: empty frame payload")
	case uint64(size) > math.MaxUint32:
		return fmt.Errorf("container: frame %d payload of %d bytes exceeds the 32-bit record size", w.frames, size)
	case w.frames >= maxFrameCount:
		return fmt.Errorf("container: stream already holds %d frames, the most a reader accepts", w.frames)
	}
	return nil
}

// WriteEncoded appends a codec.EncodedFrame.
func (w *Writer) WriteEncoded(ef *codec.EncodedFrame) error {
	return w.WriteFrame(ef.Type, ef.Data)
}

// Close writes the frame index in one Write and patches the header. The
// Writer cannot be used afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	// Sessions keep their Writer after Close; the stream holds the index now.
	index := w.index
	w.index = nil
	if _, err := w.ws.Write(index); err != nil {
		return fmt.Errorf("container: writing index: %w", err)
	}
	if _, err := w.ws.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("container: seeking to header: %w", err)
	}
	hdr := w.encodeHeader(uint32(w.frames), uint64(w.offset))
	if _, err := w.ws.Write(hdr); err != nil {
		return fmt.Errorf("container: patching header: %w", err)
	}
	w.info.FrameCount = w.frames
	return nil
}

// BytesWritten reports the payload+header bytes written so far (the index
// adds indexRecSize per frame at Close).
func (w *Writer) BytesWritten() int64 { return w.offset }

// FrameCount reports the number of frames written so far.
func (w *Writer) FrameCount() int { return w.frames }

// Reader provides random access to an SVF stream. It loads the header and
// index eagerly (both are metadata; payloads are read on demand).
type Reader struct {
	ra    io.ReaderAt
	info  StreamInfo
	index []FrameMeta
}

// NewReader parses the header and index from ra (size is the total stream
// length in bytes).
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	if size < headerSize {
		return nil, ErrTruncated
	}
	hdr := make([]byte, headerSize)
	if _, err := ra.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("container: reading header: %w", err)
	}
	if binary.BigEndian.Uint32(hdr[0:]) != magic {
		return nil, ErrBadMagic
	}
	if v := binary.BigEndian.Uint16(hdr[4:]); v != version {
		return nil, fmt.Errorf("container: unsupported version %d", v)
	}
	info := StreamInfo{
		Width:    int(binary.BigEndian.Uint32(hdr[8:])),
		Height:   int(binary.BigEndian.Uint32(hdr[12:])),
		FPS:      int(binary.BigEndian.Uint32(hdr[16:])),
		Quality:  int(binary.BigEndian.Uint32(hdr[20:])),
		GOPSize:  int(binary.BigEndian.Uint32(hdr[24:])),
		Scenecut: math.Float64frombits(binary.BigEndian.Uint64(hdr[28:])),
	}
	frameCount := int(binary.BigEndian.Uint32(hdr[36:]))
	indexOffset := int64(binary.BigEndian.Uint64(hdr[40:]))
	if frameCount < 0 || frameCount > maxFrameCount {
		return nil, fmt.Errorf("container: implausible frame count %d", frameCount)
	}
	// Bounds are compared by subtraction: an index offset or record near
	// 2⁶³ would wrap a sum past the check.
	if indexOffset < headerSize || indexOffset > size || int64(frameCount)*indexRecSize > size-indexOffset {
		return nil, ErrTruncated
	}
	info.FrameCount = frameCount

	idxBuf := make([]byte, frameCount*indexRecSize)
	if _, err := ra.ReadAt(idxBuf, indexOffset); err != nil {
		return nil, fmt.Errorf("container: reading index: %w", err)
	}
	index := make([]FrameMeta, frameCount)
	for i := range index {
		rec := idxBuf[i*indexRecSize:]
		index[i] = FrameMeta{
			Index:  i,
			Type:   codec.FrameType(rec[0]),
			Size:   int(binary.BigEndian.Uint32(rec[1:])),
			Offset: int64(binary.BigEndian.Uint64(rec[5:])),
		}
		if off := index[i].Offset; off < headerSize || off > indexOffset || int64(index[i].Size) > indexOffset-off {
			return nil, fmt.Errorf("container: frame %d index record out of bounds", i)
		}
	}
	return &Reader{ra: ra, info: info, index: index}, nil
}

// OpenFile opens an SVF file; the returned closer is the underlying file.
func OpenFile(path string) (*Reader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

// Info returns the stream header.
func (r *Reader) Info() StreamInfo { return r.info }

// NumFrames returns the number of frames in the stream.
func (r *Reader) NumFrames() int { return len(r.index) }

// Meta returns the index record for frame i.
func (r *Reader) Meta(i int) FrameMeta { return r.index[i] }

// Payload reads frame i's encoded bytes.
func (r *Reader) Payload(i int) ([]byte, error) {
	if i < 0 || i >= len(r.index) {
		return nil, fmt.Errorf("container: frame %d out of range [0,%d)", i, len(r.index))
	}
	m := r.index[i]
	buf := make([]byte, m.Size)
	if _, err := r.ra.ReadAt(buf, m.Offset); err != nil {
		return nil, fmt.Errorf("container: reading frame %d: %w", i, err)
	}
	return buf, nil
}

// ScanMeta walks the index in order, calling fn for each record until fn
// returns false. This is the I-frame seeker's hot loop: pure metadata, no
// payload I/O.
func (r *Reader) ScanMeta(fn func(FrameMeta) bool) {
	for _, m := range r.index {
		if !fn(m) {
			return
		}
	}
}

// IFrames returns the index records of all I-frames.
func (r *Reader) IFrames() []FrameMeta {
	out := make([]FrameMeta, 0, len(r.index)/16+1)
	for _, m := range r.index {
		if m.Type == codec.FrameI {
			out = append(out, m)
		}
	}
	return out
}

// PayloadBytes sums the payload sizes of the frames selected by keep (nil
// selects all) — the byte accounting behind the paper's Figure 5.
func (r *Reader) PayloadBytes(keep func(FrameMeta) bool) int64 {
	var total int64
	for _, m := range r.index {
		if keep == nil || keep(m) {
			total += int64(m.Size)
		}
	}
	return total
}

// chunkSize is the Buffer's unit of allocation, chosen by measurement:
// 4 KiB chunks wrote ≈ 1.5× slower (BenchmarkStreamWrite), and 64 KiB ones
// are large-object allocations that leave more slack after a short stream.
const chunkSize = 16 << 10

// Buffer is an in-memory io.WriteSeeker + io.ReaderAt, letting pipelines
// build and consume SVF streams without touching disk.
//
// The bytes live in fixed-size chunks. A write allocates only the chunks
// past the current end and never moves a byte already written, so a stream
// costs O(payload) per frame at any length and retains its size plus less
// than one chunk.
type Buffer struct {
	chunks [][]byte // each chunkSize long; bytes at and past size are zero
	size   int64
	pos    int64
}

var (
	_ io.WriteSeeker = (*Buffer)(nil)
	_ io.ReaderAt    = (*Buffer)(nil)
)

// Write appends or overwrites at the current position. A write after a
// seek past the end leaves zeros in the gap.
func (b *Buffer) Write(p []byte) (int, error) {
	end := b.pos + int64(len(p))
	for int64(len(b.chunks))*chunkSize < end {
		b.chunks = append(b.chunks, make([]byte, chunkSize))
	}
	b.size = max(b.size, end)
	for n := 0; n < len(p); {
		c := b.chunks[b.pos/chunkSize][b.pos%chunkSize:]
		m := copy(c, p[n:])
		n += m
		b.pos += int64(m)
	}
	return len(p), nil
}

// Seek implements io.Seeker.
func (b *Buffer) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = b.pos + offset
	case io.SeekEnd:
		abs = b.size + offset
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
func (b *Buffer) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("container: negative read offset")
	}
	if off >= b.size {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && off < b.size {
		c := b.chunks[off/chunkSize][off%chunkSize:]
		if rest := b.size - off; int64(len(c)) > rest {
			c = c[:rest]
		}
		m := copy(p[n:], c)
		n += m
		off += int64(m)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Bytes returns a contiguous copy of the buffer's contents.
func (b *Buffer) Bytes() []byte {
	out := make([]byte, b.size)
	_, _ = b.ReadAt(out, 0) // exact fit: io.EOF only when the buffer is empty
	return out
}

// Size returns the buffer length in bytes.
func (b *Buffer) Size() int64 { return b.size }
