package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"sieve/internal/frame"
)

// Conn frames SVWP messages over a byte stream. Reads and writes are
// independently safe for one reader plus one writer goroutine (the
// protocol's natural shape: the data direction streams FRAMEs while the
// other direction delivers ACKs); concurrent writers are serialised by
// an internal mutex.
type Conn struct {
	raw net.Conn
	br  *bufio.Reader

	wmu  sync.Mutex
	bw   *bufio.Writer
	wbuf []byte // reused payload scratch for typed writers

	rbuf []byte // reused payload buffer for ReadMessage
}

// NewConn wraps a net.Conn (or net.Pipe end) for SVWP framing.
func NewConn(c net.Conn) *Conn {
	return &Conn{
		raw: c,
		br:  bufio.NewReaderSize(c, 64<<10),
		bw:  bufio.NewWriterSize(c, 64<<10),
	}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// SetWriteDeadline sets the underlying connection's write deadline: a
// write still blocked at t fails, and so does every write after it.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

// WriteMessage frames and sends one message: u8 type, u32 payload
// length, payload. The write is buffered; callers batch-flushing many
// FRAMEs can delay Flush, while the typed helpers flush per message.
func (c *Conn) WriteMessage(t MsgType, payload []byte) error {
	if len(payload) > MaxMessage {
		return fmt.Errorf("wire: %s payload %d bytes exceeds MaxMessage %d", t, len(payload), MaxMessage)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeLocked(t, payload)
}

func (c *Conn) writeLocked(t MsgType, payload []byte) error {
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// ReadMessage reads the next message, reusing an internal payload
// buffer: the returned slice is valid only until the next ReadMessage.
func (c *Conn) ReadMessage() (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	t := MsgType(hdr[0])
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if n > MaxMessage {
		return 0, nil, fmt.Errorf("wire: %s payload length %d exceeds MaxMessage %d", t, n, MaxMessage)
	}
	if cap(c.rbuf) >= n {
		// Steady state: the reused buffer already fits (zero allocations).
		c.rbuf = c.rbuf[:n]
		if _, err := io.ReadFull(c.br, c.rbuf); err != nil {
			return 0, nil, fmt.Errorf("wire: reading %s payload: %w", t, err)
		}
		return t, c.rbuf, nil
	}
	// First sight of a payload this large: grow in bounded steps as data
	// actually arrives, so a forged length header cannot make the ingest
	// plane hold MaxMessage bytes for a peer that never sends them.
	c.rbuf = c.rbuf[:0]
	for len(c.rbuf) < n {
		k := n - len(c.rbuf)
		if k > readChunk {
			k = readChunk
		}
		c.rbuf = slices.Grow(c.rbuf, k)
		start := len(c.rbuf)
		c.rbuf = c.rbuf[:start+k]
		if _, err := io.ReadFull(c.br, c.rbuf[start:]); err != nil {
			c.rbuf = c.rbuf[:0]
			return 0, nil, fmt.Errorf("wire: reading %s payload: %w", t, err)
		}
	}
	return t, c.rbuf, nil
}

// readChunk bounds each allocation step while a payload streams in.
const readChunk = 1 << 20

// send encodes a payload with fn into the reused scratch and writes it.
func (c *Conn) send(t MsgType, fn func([]byte) []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = fn(c.wbuf[:0])
	if len(c.wbuf) > MaxMessage {
		return fmt.Errorf("wire: %s payload %d bytes exceeds MaxMessage %d", t, len(c.wbuf), MaxMessage)
	}
	return c.writeLocked(t, c.wbuf)
}

// SendHello sends a HELLO message.
func (c *Conn) SendHello(h Hello) error {
	return c.send(MsgHello, func(b []byte) []byte { return AppendHello(b, h) })
}

// SendWelcome sends a WELCOME message.
func (c *Conn) SendWelcome(w Welcome) error {
	return c.send(MsgWelcome, func(b []byte) []byte { return AppendWelcome(b, w) })
}

// SendResume sends a RESUME message.
func (c *Conn) SendResume(r Resume) error {
	return c.send(MsgResume, func(b []byte) []byte { return AppendResume(b, r) })
}

// SendFrame sends one raw frame as a FRAME message, serialising the
// plane rows into the connection's reused scratch buffer (steady-state
// allocation-free once the scratch reaches frame size).
func (c *Conn) SendFrame(index int64, f *frame.YUV) error {
	return c.send(MsgFrame, func(b []byte) []byte {
		b = AppendFrameHeader(b, index)
		return AppendFramePixels(b, f)
	})
}

// SendAck sends an ACK message.
func (c *Conn) SendAck(a Ack) error {
	return c.send(MsgAck, func(b []byte) []byte { return AppendAck(b, a) })
}

// SendDrain sends a DRAIN message.
func (c *Conn) SendDrain(d Drain) error {
	return c.send(MsgDrain, func(b []byte) []byte { return AppendDrain(b, d) })
}

// SendClose sends a CLOSE message.
func (c *Conn) SendClose(cl Close) error {
	return c.send(MsgClose, func(b []byte) []byte { return AppendClose(b, cl) })
}

// SendError sends an ERROR message.
func (c *Conn) SendError(e ErrorMsg) error {
	return c.send(MsgError, func(b []byte) []byte { return AppendError(b, e) })
}
