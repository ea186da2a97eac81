package wire

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"

	"sieve/internal/frame"
)

func testFrame(w, h int) *frame.YUV {
	f := frame.NewYUV(w, h)
	for i := range f.Y.Pix {
		f.Y.Pix[i] = byte(i * 7)
	}
	for i := range f.Cb.Pix {
		f.Cb.Pix[i] = byte(i*3 + 1)
	}
	for i := range f.Cr.Pix {
		f.Cr.Pix[i] = byte(i*5 + 2)
	}
	return f
}

func pipeConns(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	l := NewMemListener()
	t.Cleanup(func() { l.Close() })
	var server *Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		server = NewConn(c)
	}()
	cc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if server == nil {
		t.Fatal("no server conn")
	}
	client := NewConn(cc)
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestMessageRoundTrips(t *testing.T) {
	client, server := pipeConns(t)

	hello := Hello{
		Feed: "cam-01", Width: 128, Height: 80, FPS: 5,
		Quality: 70, GOP: 24, MinGOP: 3, Scenecut: 40,
	}
	welcome := Welcome{Version: ProtocolVersion, ResumeFrom: 17, FrameBytes: FrameBytes(128, 80)}
	resume := Resume{Feed: "cam-01", Token: 12}
	ack := Ack{Frame: 9, Type: 1}
	drain := Drain{Code: DrainEvicted, Frame: 4, Count: 6}
	cls := Close{Reason: CloseQuotaFrames, Frames: 33}
	errMsg := ErrorMsg{Code: ErrCodeBadResume, Msg: "token 99 past end of store"}

	done := make(chan error, 1)
	go func() {
		done <- func() error {
			if err := client.SendHello(hello); err != nil {
				return err
			}
			if err := client.SendResume(resume); err != nil {
				return err
			}
			if err := client.SendAck(ack); err != nil {
				return err
			}
			if err := client.SendDrain(drain); err != nil {
				return err
			}
			if err := client.SendClose(cls); err != nil {
				return err
			}
			if err := client.SendError(errMsg); err != nil {
				return err
			}
			return client.SendWelcome(welcome)
		}()
	}()

	expect := func(want MsgType) []byte {
		t.Helper()
		typ, payload, err := server.ReadMessage()
		if err != nil {
			t.Fatalf("reading %s: %v", want, err)
		}
		if typ != want {
			t.Fatalf("got %s, want %s", typ, want)
		}
		return payload
	}

	if got, err := ParseHello(expect(MsgHello)); err != nil || got != hello {
		t.Fatalf("hello = %+v, %v; want %+v", got, err, hello)
	}
	if got, err := ParseResume(expect(MsgResume)); err != nil || got != resume {
		t.Fatalf("resume = %+v, %v", got, err)
	}
	if got, err := ParseAck(expect(MsgAck)); err != nil || got != ack {
		t.Fatalf("ack = %+v, %v", got, err)
	}
	if got, err := ParseDrain(expect(MsgDrain)); err != nil || got != drain {
		t.Fatalf("drain = %+v, %v", got, err)
	}
	if got, err := ParseClose(expect(MsgClose)); err != nil || got != cls {
		t.Fatalf("close = %+v, %v", got, err)
	}
	if got, err := ParseError(expect(MsgError)); err != nil || got != errMsg {
		t.Fatalf("error = %+v, %v", got, err)
	}
	if got, err := ParseWelcome(expect(MsgWelcome)); err != nil || got != welcome {
		t.Fatalf("welcome = %+v, %v", got, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	client, server := pipeConns(t)
	src := testFrame(32, 16)

	go func() {
		if err := client.SendFrame(41, src); err != nil {
			t.Error(err)
		}
	}()
	typ, payload, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgFrame {
		t.Fatalf("got %s, want FRAME", typ)
	}
	dst := frame.NewYUV(32, 16)
	idx, err := DecodeFrameInto(payload, dst)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 41 {
		t.Fatalf("index = %d, want 41", idx)
	}
	if !dst.Equal(src) {
		t.Fatal("frame pixels corrupted in transit")
	}
}

func TestFramePayloadSizeValidated(t *testing.T) {
	f := frame.NewYUV(32, 16)
	payload := AppendFrameHeader(nil, 0)
	payload = AppendFramePixels(payload, f)
	short := payload[:len(payload)-1]
	if _, err := DecodeFrameInto(short, frame.NewYUV(32, 16)); err == nil {
		t.Fatal("short FRAME payload accepted")
	}
	if _, err := DecodeFrameInto(append(payload, 0), frame.NewYUV(32, 16)); err == nil {
		t.Fatal("long FRAME payload accepted")
	}
	if _, err := DecodeFrameInto(payload, frame.NewYUV(64, 16)); err == nil {
		t.Fatal("geometry-mismatched FRAME payload accepted")
	}
}

func TestHelloValidation(t *testing.T) {
	valid := Hello{Feed: "cam", Width: 64, Height: 48, FPS: 5, Scenecut: 40}
	cases := []struct {
		name   string
		mutate func(*Hello)
	}{
		{"empty name", func(h *Hello) { h.Feed = "" }},
		{"long name", func(h *Hello) { h.Feed = strings.Repeat("x", MaxFeedName+1) }},
		{"odd width", func(h *Hello) { h.Width = 63 }},
		{"zero height", func(h *Hello) { h.Height = 0 }},
		{"huge width", func(h *Hello) { h.Width = MaxDimension + 2 }},
		{"zero fps", func(h *Hello) { h.FPS = 0 }},
		{"quality out of range", func(h *Hello) { h.Quality = 101 }},
		{"negative scenecut", func(h *Hello) { h.Scenecut = -1 }},
	}
	if _, err := ParseHello(AppendHello(nil, valid)); err != nil {
		t.Fatalf("valid hello rejected: %v", err)
	}
	for _, tc := range cases {
		h := valid
		tc.mutate(&h)
		if _, err := ParseHello(AppendHello(nil, h)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestTruncatedPayloadsRejected(t *testing.T) {
	full := AppendHello(nil, Hello{Feed: "cam", Width: 64, Height: 48, FPS: 5})
	for n := 0; n < len(full); n++ {
		if _, err := ParseHello(full[:n]); err == nil {
			t.Fatalf("truncated HELLO of %d bytes accepted", n)
		}
	}
	if _, err := ParseWelcome(nil); err == nil {
		t.Fatal("empty WELCOME accepted")
	}
	if _, err := ParseAck([]byte{1, 2}); err == nil {
		t.Fatal("short ACK accepted")
	}
}

func TestUnknownPayloadTailIgnored(t *testing.T) {
	// Forward compatibility: receivers accept payloads longer than the
	// defined layout and ignore the tail.
	b := AppendAck(nil, Ack{Frame: 3, Type: 0})
	b = append(b, 0xde, 0xad)
	got, err := ParseAck(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Frame != 3 {
		t.Fatalf("ack frame = %d", got.Frame)
	}
}

func TestBadVersionAndMagicRejected(t *testing.T) {
	good := AppendHello(nil, Hello{Feed: "cam", Width: 64, Height: 48, FPS: 5})
	bad := append([]byte(nil), good...)
	bad[0] = 'X' // corrupt magic
	if _, err := ParseHello(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), good...)
	bad[5] = ProtocolVersion + 1 // bump version low byte
	if _, err := ParseHello(bad); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	client, server := pipeConns(t)
	go func() {
		// Hand-craft a header announcing an absurd payload.
		raw := []byte{byte(MsgFrame), 0xff, 0xff, 0xff, 0xff}
		client.bw.Write(raw)
		client.bw.Flush()
	}()
	if _, _, err := server.ReadMessage(); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestQueueBackpressureAndDrain(t *testing.T) {
	q := NewQueue(2)
	ctx := context.Background()
	for i := int64(0); i < 2; i++ {
		if err := q.Push(ctx, Item{Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Full: TryPush refuses, Push blocks until a Pop frees a slot.
	if ok, _ := q.TryPush(Item{Index: 2}); ok {
		t.Fatal("TryPush succeeded on a full queue")
	}
	pushed := make(chan error, 1)
	go func() { pushed <- q.Push(ctx, Item{Index: 2}) }()
	it, err := q.Pop(ctx)
	if err != nil || it.Index != 0 {
		t.Fatalf("pop = %+v, %v", it, err)
	}
	if err := <-pushed; err != nil {
		t.Fatal(err)
	}
	q.Close(nil)
	if err := q.Push(ctx, Item{Index: 3}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("push after close = %v", err)
	}
	// Remaining items drain in order, then EOF.
	for want := int64(1); want <= 2; want++ {
		it, err := q.Pop(ctx)
		if err != nil || it.Index != want {
			t.Fatalf("drain pop = %+v, %v (want index %d)", it, err, want)
		}
	}
	if _, err := q.Pop(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("pop after drain = %v, want io.EOF", err)
	}
}

func TestQueueEvictAll(t *testing.T) {
	q := NewQueue(3)
	ctx := context.Background()
	for i := int64(0); i < 3; i++ {
		if err := q.Push(ctx, Item{Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	evicted := q.EvictAll()
	if len(evicted) != 3 || evicted[0].Index != 0 || evicted[2].Index != 2 {
		t.Fatalf("evicted = %+v", evicted)
	}
	if q.Len() != 0 {
		t.Fatalf("len after evict = %d", q.Len())
	}
	// The freed capacity is immediately usable.
	if ok, err := q.TryPush(Item{Index: 9, Discont: true}); !ok || err != nil {
		t.Fatalf("TryPush after evict = %v, %v", ok, err)
	}
}

func TestQueueCloseWithError(t *testing.T) {
	q := NewQueue(1)
	sentinel := errors.New("camera unplugged")
	q.Close(sentinel)
	q.Close(nil) // idempotent: first error wins
	if _, err := q.Pop(context.Background()); !errors.Is(err, sentinel) {
		t.Fatalf("pop = %v, want sentinel", err)
	}
}

// TestQueueCloseWakesEveryBlockedPush: several producers blocked on a
// full queue all return ErrQueueClosed on Close, with no Pop to free a
// slot and no cancellation.
func TestQueueCloseWakesEveryBlockedPush(t *testing.T) {
	q := NewQueue(1)
	ctx := context.Background()
	if err := q.Push(ctx, Item{}); err != nil {
		t.Fatal(err)
	}
	const producers = 3
	var started sync.WaitGroup
	errs := make(chan error, producers)
	for i := 0; i < producers; i++ {
		started.Add(1)
		go func() {
			started.Done()
			errs <- q.Push(ctx, Item{Index: 1})
		}()
	}
	started.Wait()
	q.Close(nil)
	for i := 0; i < producers; i++ {
		if err := <-errs; !errors.Is(err, ErrQueueClosed) {
			t.Fatalf("blocked push %d = %v, want ErrQueueClosed", i, err)
		}
	}
}

func TestQueuePopHonoursContext(t *testing.T) {
	q := NewQueue(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.Pop(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pop = %v", err)
	}
}

func TestMemListenerClose(t *testing.T) {
	l := NewMemListener()
	l.Close()
	if _, err := l.Accept(); !errors.Is(err, ErrListenerClosed) {
		t.Fatalf("accept = %v", err)
	}
	if _, err := l.Dial(); !errors.Is(err, ErrListenerClosed) {
		t.Fatalf("dial = %v", err)
	}
}
