package sieve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sieve/internal/container"
	"sieve/internal/synth"
	"sieve/internal/wire"
)

// quietScene renders a static feed (noise only, no objects): with a huge
// scenecut threshold its baseline encode has exactly one I-frame (frame
// 0), so any further I-frame in a wire-ingested stream proves the
// discontinuity rule fired.
func quietScene(t testing.TB, frames int) *Dataset {
	t.Helper()
	v, err := synth.New(synth.Spec{
		Name: "quiet", Width: 64, Height: 48, FPS: 5, NumFrames: frames,
		NoiseAmp: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// quietParams are the encoder parameters the server derives from
// quietHello — the baseline for byte-equality checks.
func quietParams(v *Dataset) EncoderParams {
	spec := v.Spec()
	p := DefaultParams(spec.Width, spec.Height)
	p.Scenecut = 400
	return p
}

func quietHello(v *Dataset, feed string) wire.Hello {
	spec := v.Spec()
	return wire.Hello{Feed: feed, Width: spec.Width, Height: spec.Height, FPS: spec.FPS, Scenecut: 400}
}

// encodeBaseline runs v through the in-process path with the same
// parameters the server derives from a HELLO.
func encodeBaseline(t testing.TB, v *Dataset, p EncoderParams) *container.Reader {
	t.Helper()
	var buf container.Buffer
	if _, err := EncodeStream(context.Background(), NewSynthSource(v), &buf, WithTunedParams(p)); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStream(&buf, buf.Size())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// assertStreamEquals compares two SVF streams frame by frame: same
// count, same frame types, byte-identical payloads.
func assertStreamEquals(t testing.TB, got, want *container.Reader) {
	t.Helper()
	if got.NumFrames() != want.NumFrames() {
		t.Fatalf("stream has %d frames, want %d", got.NumFrames(), want.NumFrames())
	}
	for i := 0; i < got.NumFrames(); i++ {
		if got.Meta(i).Type != want.Meta(i).Type {
			t.Fatalf("frame %d type = %v, want %v", i, got.Meta(i).Type, want.Meta(i).Type)
		}
		gp, err := got.Payload(i)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := want.Payload(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gp, wp) {
			t.Fatalf("frame %d payload differs (%d vs %d bytes)", i, len(gp), len(wp))
		}
	}
}

// startHub drains the hub's events and runs it in the background,
// returning the terminal error channel.
func startHub(hub *Hub) chan error {
	errc := make(chan error, 1)
	go func() {
		for range hub.Events() {
		}
	}()
	go func() { errc <- hub.Run(context.Background()) }()
	return errc
}

// rawClient drives the wire protocol by hand — every send and expect is
// a deterministic lock-step over the synchronous in-memory pipe.
type rawClient struct {
	t  *testing.T
	nc net.Conn
	c  *wire.Conn
}

func dialRaw(t *testing.T, ln *MemListener) *rawClient {
	t.Helper()
	nc, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	return &rawClient{t: t, nc: nc, c: wire.NewConn(nc)}
}

func (rc *rawClient) read() (wire.MsgType, []byte) {
	rc.t.Helper()
	mt, payload, err := rc.c.ReadMessage()
	if err != nil {
		rc.t.Fatalf("read: %v", err)
	}
	return mt, payload
}

// hello performs the HELLO handshake, expecting WELCOME.
func (rc *rawClient) hello(h wire.Hello) wire.Welcome {
	rc.t.Helper()
	if err := rc.c.SendHello(h); err != nil {
		rc.t.Fatal(err)
	}
	return rc.expectWelcome()
}

// resume performs the RESUME handshake, expecting WELCOME.
func (rc *rawClient) resume(feed string, token int64) wire.Welcome {
	rc.t.Helper()
	if err := rc.c.SendResume(wire.Resume{Feed: feed, Token: token}); err != nil {
		rc.t.Fatal(err)
	}
	return rc.expectWelcome()
}

func (rc *rawClient) expectWelcome() wire.Welcome {
	rc.t.Helper()
	mt, payload := rc.read()
	if mt == wire.MsgError {
		e, _ := wire.ParseError(payload)
		rc.t.Fatalf("handshake rejected: %v", &e)
	}
	if mt != wire.MsgWelcome {
		rc.t.Fatalf("got %s, want WELCOME", mt)
	}
	w, err := wire.ParseWelcome(payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	return w
}

// expectError reads a terminal server rejection.
func (rc *rawClient) expectError(code wire.ErrCode) wire.ErrorMsg {
	rc.t.Helper()
	mt, payload := rc.read()
	if mt != wire.MsgError {
		rc.t.Fatalf("got %s, want ERROR", mt)
	}
	e, err := wire.ParseError(payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	if e.Code != code {
		rc.t.Fatalf("error code = %s, want %s (%s)", e.Code, code, e.Msg)
	}
	return e
}

// sendFrame streams source frame i of v under wire index idx.
func (rc *rawClient) sendFrame(v *Dataset, i int, idx int64) {
	rc.t.Helper()
	if err := rc.c.SendFrame(idx, v.RenderInto(i, nil)); err != nil {
		rc.t.Fatalf("send frame %d: %v", idx, err)
	}
}

func (rc *rawClient) expectAck(frame int64) wire.Ack {
	rc.t.Helper()
	mt, payload := rc.read()
	if mt != wire.MsgAck {
		rc.t.Fatalf("got %s, want ACK", mt)
	}
	a, err := wire.ParseAck(payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	if a.Frame != frame {
		rc.t.Fatalf("ack frame = %d, want %d", a.Frame, frame)
	}
	return a
}

func (rc *rawClient) expectDrain(code wire.DrainCode) wire.Drain {
	rc.t.Helper()
	mt, payload := rc.read()
	if mt != wire.MsgDrain {
		rc.t.Fatalf("got %s, want DRAIN", mt)
	}
	d, err := wire.ParseDrain(payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	if d.Code != code {
		rc.t.Fatalf("drain code = %s, want %s", d.Code, code)
	}
	return d
}

func (rc *rawClient) expectClose() wire.Close {
	rc.t.Helper()
	mt, payload := rc.read()
	if mt != wire.MsgClose {
		rc.t.Fatalf("got %s, want CLOSE", mt)
	}
	cl, err := wire.ParseClose(payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	return cl
}

// closeStream sends the client CLOSE and waits for the server's terminal
// CLOSE, reading any trailing ACKs in between.
func (rc *rawClient) closeStream(sent int64) wire.Close {
	rc.t.Helper()
	if err := rc.c.SendClose(wire.Close{Reason: wire.CloseEndOfStream, Frames: sent}); err != nil {
		rc.t.Fatal(err)
	}
	for {
		mt, payload := rc.read()
		switch mt {
		case wire.MsgAck:
		case wire.MsgClose:
			cl, err := wire.ParseClose(payload)
			if err != nil {
				rc.t.Fatal(err)
			}
			return cl
		default:
			rc.t.Fatalf("got %s, want ACK or CLOSE", mt)
		}
	}
}

// TestWireHubEquivalence is the tentpole acceptance bar: the same fleet
// pushed over the wire produces a ResultsDB JSON byte-identical to the
// in-process flat hub run.
func TestWireHubEquivalence(t *testing.T) {
	// Train the shared detector and render the scenes on the test
	// goroutine: the ingest callback and the pushers run on their own
	// goroutines, where t.Fatal is off limits.
	det := trainedTestDetector(t)
	sources := make(map[string]*SynthSource, len(clusterCameras))
	for _, cam := range clusterCameras {
		sources[cam.name] = NewSynthSource(clusterScene(t, cam.seed, cam.enter))
	}
	ln := NewMemListener()
	lst := NewIngestListener(ln,
		WithExpectedFeeds(len(clusterCameras)),
		WithIngestSession(func(feed string, info SourceInfo) []SessionOption {
			return []SessionOption{WithClock(testClock()), WithDetector(det)}
		}),
	)
	hub := NewHub(WithWorkers(3), WithListener(lst))
	db := NewResultsDB()
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range hub.Events() {
			if ev.Kind == EventDetection {
				db.Put(ev.Feed, ev.Frame, ev.Labels)
			}
		}
	}()
	errc := make(chan error, 1)
	go func() { errc <- hub.Run(context.Background()) }()

	pushErrs := make(chan error, len(clusterCameras))
	for _, cam := range clusterCameras {
		go func(name string, src *SynthSource) {
			p := NewPusher(src, WithPusherName(name))
			conn, err := ln.Dial()
			if err != nil {
				pushErrs <- err
				return
			}
			pushErrs <- p.Run(context.Background(), conn)
		}(cam.name, sources[cam.name])
	}
	for range clusterCameras {
		if err := <-pushErrs; err != nil {
			t.Fatalf("pusher: %v", err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("hub run: %v", err)
	}
	<-consumed

	path := filepath.Join(t.TempDir(), "wire.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := runFlatHubJSON(t)
	if string(got) != string(want) {
		t.Fatalf("wire-ingested ResultsDB differs from in-process run:\nwire:\n%s\nin-process:\n%s", got, want)
	}

	st := hub.Snapshot()
	if st.Ingest.FeedsAdmitted != len(clusterCameras) {
		t.Fatalf("FeedsAdmitted = %d, want %d", st.Ingest.FeedsAdmitted, len(clusterCameras))
	}
	if st.Ingest.FramesReceived != int64(len(clusterCameras))*12 {
		t.Fatalf("FramesReceived = %d, want %d", st.Ingest.FramesReceived, len(clusterCameras)*12)
	}
	if st.Ingest.Duplicates != 0 || st.Ingest.Skipped != 0 || st.Ingest.Shed != 0 || st.Ingest.Evicted != 0 {
		t.Fatalf("clean run counted losses: %+v", st.Ingest)
	}
	// Every feed's stream was archived in the listener's store.
	for _, cam := range clusterCameras {
		if _, err := lst.Store().Open(cam.name); err != nil {
			t.Fatalf("archived stream for %s: %v", cam.name, err)
		}
	}
}

// TestWireClusterEquivalence runs the fleet over the wire into a sharded
// cluster: the merged ResultsDB must still match the flat in-process hub
// byte for byte (sharding and transport change where work happens, never
// what is computed).
func TestWireClusterEquivalence(t *testing.T) {
	det := trainedTestDetector(t)
	sources := make(map[string]*SynthSource, len(clusterCameras))
	for _, cam := range clusterCameras {
		sources[cam.name] = NewSynthSource(clusterScene(t, cam.seed, cam.enter))
	}
	ln := NewMemListener()
	lst := NewIngestListener(ln,
		WithExpectedFeeds(len(clusterCameras)),
		WithIngestSession(func(feed string, info SourceInfo) []SessionOption {
			return []SessionOption{WithClock(testClock()), WithDetector(det)}
		}),
	)
	c, err := NewCluster(3, WithSiteWorkers(2), WithClusterListener(lst))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range c.Events() {
		}
	}()
	errc := make(chan error, 1)
	go func() { errc <- c.Run(context.Background()) }()

	pushErrs := make(chan error, len(clusterCameras))
	for _, cam := range clusterCameras {
		go func(name string, src *SynthSource) {
			p := NewPusher(src, WithPusherName(name))
			conn, err := ln.Dial()
			if err != nil {
				pushErrs <- err
				return
			}
			pushErrs <- p.Run(context.Background(), conn)
		}(cam.name, sources[cam.name])
	}
	for range clusterCameras {
		if err := <-pushErrs; err != nil {
			t.Fatalf("pusher: %v", err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("cluster run: %v", err)
	}

	merged, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wire-cluster.json")
	if err := merged.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := runFlatHubJSON(t)
	if string(got) != string(want) {
		t.Fatalf("wire-ingested cluster ResultsDB differs from in-process flat hub")
	}
	st := c.Snapshot()
	if st.Ingest.FeedsAdmitted != len(clusterCameras) {
		t.Fatalf("FeedsAdmitted = %d, want %d", st.Ingest.FeedsAdmitted, len(clusterCameras))
	}
	// Wire feeds are archived per site, like in-process cluster feeds.
	archived := 0
	for _, site := range c.sites {
		archived += len(site.edge.Cameras())
	}
	if archived != len(clusterCameras) {
		t.Fatalf("archived %d site streams, want %d", archived, len(clusterCameras))
	}
}

// TestWireReconnectResume covers the clean reconnect: frames 0..5, a
// dropped connection, RESUME, frames 6..11. The server's cursor is
// authoritative and the archived stream is byte-identical to an
// uninterrupted in-process encode — no duplicate, no missing, no spurious
// I-frame.
func TestWireReconnectResume(t *testing.T) {
	v := quietScene(t, 12)
	ln := NewMemListener()
	lst := NewIngestListener(ln)
	hub := NewHub(WithListener(lst))
	errc := startHub(hub)

	rc := dialRaw(t, ln)
	w := rc.hello(quietHello(v, "cam"))
	if w.ResumeFrom != 0 {
		t.Fatalf("fresh feed ResumeFrom = %d, want 0", w.ResumeFrom)
	}
	spec := v.Spec()
	if want := wire.FrameBytes(spec.Width, spec.Height); w.FrameBytes != want {
		t.Fatalf("FrameBytes = %d, want %d", w.FrameBytes, want)
	}
	var lastAckedI int64 = -1
	for i := 0; i < 6; i++ {
		rc.sendFrame(v, i, int64(i))
		if a := rc.expectAck(int64(i)); FrameType(a.Type) == FrameI {
			lastAckedI = a.Frame
		}
	}
	// The connection dies mid-run; the feed stays live on the server.
	rc.nc.Close()

	rc2 := dialRaw(t, ln)
	w2 := rc2.resume("cam", lastAckedI)
	if w2.ResumeFrom != 6 {
		t.Fatalf("ResumeFrom after 6 accepted frames = %d, want 6", w2.ResumeFrom)
	}
	for i := 6; i < 12; i++ {
		rc2.sendFrame(v, i, int64(i))
		rc2.expectAck(int64(i))
	}
	cl := rc2.closeStream(12)
	if cl.Reason != wire.CloseEndOfStream || cl.Frames != 12 {
		t.Fatalf("server close = %+v, want END_OF_STREAM/12", cl)
	}
	if err := <-errc; err != nil {
		t.Fatalf("hub run: %v", err)
	}

	st := lst.Stats()
	if st.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", st.Reconnects)
	}
	if st.FramesReceived != 12 || st.Duplicates != 0 || st.Skipped != 0 {
		t.Fatalf("counters = %+v, want 12 received, 0 duplicates, 0 skipped", st)
	}
	got, err := lst.Store().Open("cam")
	if err != nil {
		t.Fatal(err)
	}
	assertStreamEquals(t, got, encodeBaseline(t, v, quietParams(v)))
}

// gateClock stalls the session it is injected into: the session reads Now
// once per emitted event, and the read blocks until the gate opens.
type gateClock struct {
	Clock
	open chan struct{}
}

func (g gateClock) Now() time.Time {
	<-g.open
	return g.Clock.Now()
}

// TestWireResumeHandOff pins the supersede hand-off: a RESUME must read
// the feed's cursor only after the old connection's reader has returned,
// and an index must never pass the duplicate check twice. The old reader
// is parked deterministically between its check of frame 2 and the queue
// push (queue of one, full, behind a session stalled on its first event),
// so the cursor still reads 2 when the RESUME arrives. A server that
// merely closes the old connection answers ResumeFrom 2 with that reader
// still holding frame 2, and the re-sent frame 2 then either counts as a
// duplicate or enters the stream twice.
func TestWireResumeHandOff(t *testing.T) {
	const n = 8
	v := quietScene(t, n)
	gate := gateClock{Clock: testClock(), open: make(chan struct{})}
	ln := NewMemListener()
	lst := NewIngestListener(ln, WithIngestBuffer(1),
		WithIngestSession(func(string, SourceInfo) []SessionOption {
			return []SessionOption{WithClock(gate)}
		}))
	hub := NewHub(WithListener(lst))
	errc := startHub(hub)

	// Frame 0 is held by the stalled session, frame 1 fills the queue, and
	// frame 2 — read off the synchronous pipe in full, or sendFrame would
	// not have returned — parks its reader in the push.
	rc := dialRaw(t, ln)
	rc.hello(quietHello(v, "cam"))
	sent := 0
	for i := 0; i < 3; i++ {
		rc.sendFrame(v, i, int64(i))
		sent++
	}

	// The hand-off cancels the parked push and gives frame 2 back, so the
	// cursor is exact while the session is still stalled.
	rc2 := dialRaw(t, ln)
	w := rc2.resume("cam", -1)
	if w.ResumeFrom != 2 {
		t.Fatalf("ResumeFrom = %d, want 2 (frames 0 and 1 accepted, frame 2 given back)", w.ResumeFrom)
	}
	rc2.sendFrame(v, 2, 2)
	sent++
	close(gate.open)
	for i := 0; i < 3; i++ {
		rc2.expectAck(int64(i))
	}
	for i := 3; i < n; i++ {
		rc2.sendFrame(v, i, int64(i))
		sent++
		rc2.expectAck(int64(i))
	}
	if sent != n+1 {
		t.Fatalf("FRAME messages sent = %d, want %d (frame 2 re-sent once)", sent, n+1)
	}
	cl := rc2.closeStream(n)
	if cl.Reason != wire.CloseEndOfStream || cl.Frames != n {
		t.Fatalf("server close = %+v, want END_OF_STREAM/%d", cl, n)
	}
	if err := <-errc; err != nil {
		t.Fatalf("hub run: %v", err)
	}

	st := lst.Stats()
	if st.Reconnects != 1 || st.FramesReceived != n || st.Duplicates != 0 || st.Skipped != 0 {
		t.Fatalf("counters = %+v, want 1 reconnect, %d received, 0 duplicates, 0 skipped", st, n)
	}
	got, err := lst.Store().Open("cam")
	if err != nil {
		t.Fatal(err)
	}
	assertStreamEquals(t, got, encodeBaseline(t, v, quietParams(v)))
}

// TestWireResumeGapForcesIFrame covers the live-source reconnect: the
// client cannot rewind to the server's cursor, so it declares frames
// 6..7 lost by jumping the index to 8 — the server records them Skipped
// and force-encodes the next stored frame as an I-frame (a P-frame there
// would predict from a reference the stored stream never saw).
func TestWireResumeGapForcesIFrame(t *testing.T) {
	v := quietScene(t, 12)
	ln := NewMemListener()
	lst := NewIngestListener(ln)
	hub := NewHub(WithListener(lst))
	errc := startHub(hub)

	rc := dialRaw(t, ln)
	rc.hello(quietHello(v, "cam"))
	for i := 0; i < 6; i++ {
		rc.sendFrame(v, i, int64(i))
		rc.expectAck(int64(i))
	}
	rc.nc.Close()

	rc2 := dialRaw(t, ln)
	if w := rc2.resume("cam", 0); w.ResumeFrom != 6 {
		t.Fatalf("ResumeFrom = %d, want 6", w.ResumeFrom)
	}
	// A live camera cannot replay 6..7: jump to 8.
	rc2.sendFrame(v, 8, 8)
	if a := rc2.expectAck(8); FrameType(a.Type) != FrameI {
		t.Fatalf("frame after declared gap acked as %v, want forced I-frame", FrameType(a.Type))
	}
	for i := 9; i < 12; i++ {
		rc2.sendFrame(v, i, int64(i))
		if a := rc2.expectAck(int64(i)); FrameType(a.Type) != FrameP {
			t.Fatalf("frame %d acked as %v, want P", i, FrameType(a.Type))
		}
	}
	cl := rc2.closeStream(10)
	if cl.Frames != 10 {
		t.Fatalf("server close frames = %d, want 10", cl.Frames)
	}
	if err := <-errc; err != nil {
		t.Fatalf("hub run: %v", err)
	}

	if st := lst.Stats(); st.Skipped != 2 || st.FramesReceived != 10 {
		t.Fatalf("Skipped = %d FramesReceived = %d, want 2 and 10", st.Skipped, st.FramesReceived)
	}
	r, err := lst.Store().Open("cam")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumFrames() != 10 {
		t.Fatalf("stored %d frames, want 10", r.NumFrames())
	}
	// The quiet baseline has exactly one I-frame; the gap adds exactly
	// one more, at stored index 6 (source frame 8).
	ifr := r.IFrames()
	if len(ifr) != 2 || ifr[0].Index != 0 || ifr[1].Index != 6 {
		t.Fatalf("stored I-frames = %+v, want exactly {0, 6}", ifr)
	}
	// The stream decodes cleanly end to end (the forced I-frame healed
	// the prediction chain).
	if _, err := encodeBaselineDecode(r); err != nil {
		t.Fatal(err)
	}
}

// encodeBaselineDecode decodes a stored stream end to end.
func encodeBaselineDecode(r *container.Reader) (int, error) {
	src, err := NewReplaySource(r)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		_, err := src.Next(context.Background())
		if err != nil {
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
		n++
	}
}

// TestWireDuplicateFrameIdempotent covers ack loss: a client that
// conservatively resends an already-accepted frame must not corrupt the
// stream — the duplicate is dropped and counted.
func TestWireDuplicateFrameIdempotent(t *testing.T) {
	v := quietScene(t, 12)
	ln := NewMemListener()
	lst := NewIngestListener(ln)
	hub := NewHub(WithListener(lst))
	errc := startHub(hub)

	rc := dialRaw(t, ln)
	rc.hello(quietHello(v, "cam"))
	for i := 0; i < 4; i++ {
		rc.sendFrame(v, i, int64(i))
		rc.expectAck(int64(i))
	}
	// Resend frame 2 as if its ack had been lost: dropped, not re-encoded,
	// and no ack is produced for it.
	rc.sendFrame(v, 2, 2)
	for i := 4; i < 12; i++ {
		rc.sendFrame(v, i, int64(i))
		rc.expectAck(int64(i))
	}
	rc.closeStream(12)
	if err := <-errc; err != nil {
		t.Fatalf("hub run: %v", err)
	}

	if st := lst.Stats(); st.Duplicates != 1 || st.FramesReceived != 12 {
		t.Fatalf("Duplicates = %d FramesReceived = %d, want 1 and 12", st.Duplicates, st.FramesReceived)
	}
	got, err := lst.Store().Open("cam")
	if err != nil {
		t.Fatal(err)
	}
	assertStreamEquals(t, got, encodeBaseline(t, v, quietParams(v)))
}

// TestWireResumeTokenValidation covers every RESUME rejection: unknown
// feed, token ahead of the acked high-water mark on a live feed, and —
// after the run — a finished feed and a token past the end of the
// archived stream.
func TestWireResumeTokenValidation(t *testing.T) {
	v := quietScene(t, 12)
	ln := NewMemListener()
	lst := NewIngestListener(ln)
	hub := NewHub(WithListener(lst))
	errc := startHub(hub)

	rc := dialRaw(t, ln)
	rc.hello(quietHello(v, "cam"))
	for i := 0; i < 3; i++ {
		rc.sendFrame(v, i, int64(i))
		rc.expectAck(int64(i))
	}

	// Unknown feed.
	bad := dialRaw(t, ln)
	if err := bad.c.SendResume(wire.Resume{Feed: "nosuch", Token: -1}); err != nil {
		t.Fatal(err)
	}
	bad.expectError(wire.ErrCodeUnknownFeed)

	// Token ahead of the live feed's last encoded I-frame (only frame 0
	// is an I-frame in the quiet scene).
	ahead := dialRaw(t, ln)
	if err := ahead.c.SendResume(wire.Resume{Feed: "cam", Token: 99}); err != nil {
		t.Fatal(err)
	}
	ahead.expectError(wire.ErrCodeBadResume)

	// Finish the run.
	for i := 3; i < 12; i++ {
		rc.sendFrame(v, i, int64(i))
		rc.expectAck(int64(i))
	}
	rc.closeStream(12)
	if err := <-errc; err != nil {
		t.Fatalf("hub run: %v", err)
	}

	// Resuming a finished, archived feed with a valid token: the stream
	// is finalised, nothing to resume into.
	fin := dialRaw(t, ln)
	if err := fin.c.SendResume(wire.Resume{Feed: "cam", Token: 0}); err != nil {
		t.Fatal(err)
	}
	fin.expectError(wire.ErrCodeFeedFinished)

	// A token past the end of the archived stream is a distinct error:
	// the edge never retained that history.
	past := dialRaw(t, ln)
	if err := past.c.SendResume(wire.Resume{Feed: "cam", Token: 50}); err != nil {
		t.Fatal(err)
	}
	past.expectError(wire.ErrCodeBadResume)

	// And a fresh HELLO after the run is over is rejected outright.
	late := dialRaw(t, ln)
	if err := late.c.SendHello(quietHello(v, "cam2")); err != nil {
		t.Fatal(err)
	}
	late.expectError(wire.ErrCodeClosed)
}

// TestWireAdmissionControl covers the HELLO-side admission window:
// duplicate names, the MaxFeeds cap, and the frozen feed set.
func TestWireAdmissionControl(t *testing.T) {
	v := quietScene(t, 4)
	ln := NewMemListener()
	lst := NewIngestListener(ln, WithExpectedFeeds(3), WithMaxFeeds(2))
	hub := NewHub(WithListener(lst))
	errc := startHub(hub)

	a := dialRaw(t, ln)
	a.hello(quietHello(v, "cam-a"))
	a.sendFrame(v, 0, 0)
	a.sendFrame(v, 1, 1)

	dup := dialRaw(t, ln)
	if err := dup.c.SendHello(quietHello(v, "cam-a")); err != nil {
		t.Fatal(err)
	}
	dup.expectError(wire.ErrCodeDuplicateFeed)

	b := dialRaw(t, ln)
	b.hello(quietHello(v, "cam-b"))

	// MaxFeeds(2) closes the window below ExpectedFeeds(3); a third feed
	// is rejected either way.
	c := dialRaw(t, ln)
	if err := c.c.SendHello(quietHello(v, "cam-c")); err != nil {
		t.Fatal(err)
	}
	c.expectError(wire.ErrCodeFeedsExhausted)

	// Admitted feeds run to completion in admission order.
	a.closeStream(2)
	b.sendFrame(v, 0, 0)
	b.closeStream(1)
	if err := <-errc; err != nil {
		t.Fatalf("hub run: %v", err)
	}
	if feeds := lst.Feeds(); len(feeds) != 2 || feeds[0] != "cam-a" || feeds[1] != "cam-b" {
		t.Fatalf("Feeds() = %v, want [cam-a cam-b]", feeds)
	}
	st := lst.Stats()
	if st.FeedsAdmitted != 2 || st.FeedsRejected != 2 {
		t.Fatalf("FeedsAdmitted = %d FeedsRejected = %d, want 2 and 2", st.FeedsAdmitted, st.FeedsRejected)
	}
}

// TestWireAdmissionCancelReportsWindowTarget: a run cancelled inside the
// admission window names the count the window was waiting for — the
// expected feeds clamped to MaxFeeds, not the expected feeds.
func TestWireAdmissionCancelReportsWindowTarget(t *testing.T) {
	v := quietScene(t, 4)
	ln := NewMemListener()
	lst := NewIngestListener(ln, WithExpectedFeeds(3), WithMaxFeeds(2))
	defer lst.Close()
	hub := NewHub(WithListener(lst))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for range hub.Events() {
		}
	}()
	errc := make(chan error, 1)
	go func() { errc <- hub.Run(ctx) }()

	a := dialRaw(t, ln)
	a.hello(quietHello(v, "cam-a"))
	cancel()
	err := <-errc
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("hub run error = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "after 1/2 feeds") {
		t.Fatalf("hub run error = %q, want it to report 1/2 feeds", err)
	}
}

// TestWireAdmissionCancelFinishesAdmittedFeeds cancels an admission window
// that has admitted one of its feeds, on a Hub and on a Cluster: the run
// must finish that feed with the cancellation — its client reads ERROR,
// its Err is set, and no stream of it is archived — rather than leave it
// served until the listener closes.
func TestWireAdmissionCancelFinishesAdmittedFeeds(t *testing.T) {
	v := quietScene(t, 4)
	for _, owner := range []string{"hub", "cluster"} {
		t.Run(owner, func(t *testing.T) {
			ln := NewMemListener()
			lst := NewIngestListener(ln, WithExpectedFeeds(3), WithMaxFeeds(2))
			defer lst.Close()
			var (
				run     func(context.Context) error
				events  <-chan Event
				feeds   func() []FeedStats
				archive func() []string
			)
			if owner == "hub" {
				hub := NewHub(WithListener(lst))
				run, events = hub.Run, hub.Events()
				feeds = func() []FeedStats { return hub.Snapshot().Feeds }
				archive = lst.Store().Cameras
			} else {
				c, err := NewCluster(2, WithClusterListener(lst))
				if err != nil {
					t.Fatal(err)
				}
				run, events = c.Run, c.Events()
				feeds = func() (fs []FeedStats) {
					for _, s := range c.Snapshot().Sites {
						fs = append(fs, s.Hub.Feeds...)
					}
					return fs
				}
				archive = func() (cams []string) {
					for _, s := range c.sites {
						cams = append(cams, s.edge.Cameras()...)
					}
					return cams
				}
			}
			go func() {
				for range events {
				}
			}()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			go func() { errc <- run(ctx) }()

			a := dialRaw(t, ln)
			a.hello(quietHello(v, "cam-a"))
			cancel()
			if err := <-errc; !errors.Is(err, context.Canceled) {
				t.Fatalf("run error = %v, want context.Canceled", err)
			}
			if err := a.nc.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if e := a.expectError(wire.ErrCodeProtocol); !strings.Contains(e.Msg, "admission window cancelled") {
				t.Fatalf("ERROR message = %q, want the admission cancellation", e.Msg)
			}
			fs := feeds()
			if len(fs) != 1 || fs[0].Feed != "cam-a" || !strings.Contains(fs[0].Err, "admission window cancelled") {
				t.Fatalf("feeds = %+v, want cam-a failed with the admission cancellation", fs)
			}
			if cams := archive(); len(cams) != 0 {
				t.Fatalf("archived %v, want nothing", cams)
			}
		})
	}
}

// TestWireQuotaFramesCloses covers the per-feed frame quota: the stream
// is finalised at the quota and the client is told why with a terminal
// CLOSE(QUOTA_FRAMES) — terminal, not throttling.
func TestWireQuotaFramesCloses(t *testing.T) {
	v := quietScene(t, 12)
	ln := NewMemListener()
	lst := NewIngestListener(ln, WithFeedQuota(4, 0))
	hub := NewHub(WithListener(lst))
	errc := startHub(hub)

	p := NewPusher(NewSynthSource(v), WithPusherName("cam"), WithPusherEncoding(quietParams(v)))
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background(), conn); err != nil {
		t.Fatalf("pusher run: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("hub run: %v", err)
	}
	if !p.Finished() {
		t.Fatal("pusher not finished after server close")
	}
	if ps := p.Stats(); ps.CloseReason != "QUOTA_FRAMES" {
		t.Fatalf("CloseReason = %q, want QUOTA_FRAMES", ps.CloseReason)
	}
	// A finalised feed cannot be pushed again.
	conn2, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background(), conn2); !errors.Is(err, ErrPusherDone) {
		t.Fatalf("second run error = %v, want ErrPusherDone", err)
	}
	r, err := lst.Store().Open("cam")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumFrames() != 4 {
		t.Fatalf("stored %d frames, want the 4 within quota", r.NumFrames())
	}
}

// TestWireTerminalWriteHasDeadline: a client that reads WELCOME and every
// ACK, sends its CLOSE and then stops reading cannot hold the run. The
// server's terminal CLOSE, written from the session's goroutine into an
// unbuffered pipe nobody reads, times out after endWriteTimeout and the
// connection closes, so Hub.Run returns within endWriteTimeout plus a
// margin. Without the deadline the write blocks until the client reads or
// goes; here the client goes only when the test ends, so the test fails on
// its own timer instead of hanging.
func TestWireTerminalWriteHasDeadline(t *testing.T) {
	const frames = 3
	v := quietScene(t, frames)
	ln := NewMemListener()
	errc := startHub(NewHub(WithListener(NewIngestListener(ln))))
	c := dialRaw(t, ln)
	defer c.nc.Close()
	c.hello(quietHello(v, "cam"))
	for i := int64(0); i < frames; i++ {
		c.sendFrame(v, int(i), i)
		c.expectAck(i)
	}
	if err := c.c.SendClose(wire.Close{Reason: wire.CloseEndOfStream, Frames: frames}); err != nil {
		t.Fatal(err)
	}
	bound := endWriteTimeout + 5*time.Second
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("hub run: %v", err)
		}
	case <-time.After(bound):
		t.Fatalf("Hub.Run still running %v after the client stopped reading", bound)
	}
	if mt, _, err := c.c.ReadMessage(); err == nil {
		t.Fatalf("client read %s after the server's write timed out, want a closed connection", mt)
	}
}

// TestWireRejectNewSheds covers the reject-new overload policy
// deterministically: the queue is filled during the admission window
// (the session has not started), so exactly the frames beyond the
// buffer are shed, each reported with DRAIN(SHED), and the next
// accepted frame starts a fresh GOP.
func TestWireRejectNewSheds(t *testing.T) {
	v := quietScene(t, 12)
	ln := NewMemListener()
	lst := NewIngestListener(ln,
		WithExpectedFeeds(2), WithIngestBuffer(2), WithOverloadPolicy(RejectNew))
	hub := NewHub(WithListener(lst))
	errc := startHub(hub)

	a := dialRaw(t, ln)
	a.hello(quietHello(v, "cam-a"))
	// Sessions are idle until the window closes: frames 0..1 fill the
	// queue, 2..5 are shed one by one.
	a.sendFrame(v, 0, 0)
	a.sendFrame(v, 1, 1)
	for i := 2; i < 6; i++ {
		a.sendFrame(v, i, int64(i))
		if d := a.expectDrain(wire.DrainShed); d.Frame != int64(i) || d.Count != 1 {
			t.Fatalf("drain = %+v, want frame %d count 1", d, i)
		}
	}

	// Admitting the second feed closes the window and starts the run.
	b := dialRaw(t, ln)
	b.hello(quietHello(v, "cam-b"))

	// The queued frames encode and ack; the queue is now empty, so the
	// post-shed frame is accepted — and starts a fresh GOP.
	a.expectAck(0)
	a.expectAck(1)
	a.sendFrame(v, 6, 6)
	if ack := a.expectAck(6); FrameType(ack.Type) != FrameI {
		t.Fatalf("post-shed frame acked as %v, want forced I-frame", FrameType(ack.Type))
	}
	a.closeStream(3)
	b.sendFrame(v, 0, 0)
	b.closeStream(1)
	if err := <-errc; err != nil {
		t.Fatalf("hub run: %v", err)
	}

	if st := lst.Stats(); st.Shed != 4 || st.Evicted != 0 {
		t.Fatalf("Shed = %d Evicted = %d, want 4 and 0", st.Shed, st.Evicted)
	}
	r, err := lst.Store().Open("cam-a")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumFrames() != 3 {
		t.Fatalf("stored %d frames, want 3 (0, 1 and post-shed 6)", r.NumFrames())
	}
	ifr := r.IFrames()
	if len(ifr) != 2 || ifr[0].Index != 0 || ifr[1].Index != 2 {
		t.Fatalf("stored I-frames = %+v, want {0, 2}", ifr)
	}
}

// TestWireDropOldestGOPEvicts covers the drop-oldest-GOP policy
// deterministically: on overflow every queued frame is evicted in favour
// of the newest, the client learns via DRAIN(EVICTED), and the ack FIFO
// stays consistent (the surviving frames ack under their own indices).
func TestWireDropOldestGOPEvicts(t *testing.T) {
	v := quietScene(t, 12)
	ln := NewMemListener()
	lst := NewIngestListener(ln,
		WithExpectedFeeds(2), WithIngestBuffer(2), WithOverloadPolicy(DropOldestGOP))
	hub := NewHub(WithListener(lst))
	errc := startHub(hub)

	a := dialRaw(t, ln)
	a.hello(quietHello(v, "cam-a"))
	a.sendFrame(v, 0, 0)
	a.sendFrame(v, 1, 1)
	// Overflow: 0..1 are evicted, 2 takes their place.
	a.sendFrame(v, 2, 2)
	if d := a.expectDrain(wire.DrainEvicted); d.Frame != 0 || d.Count != 2 {
		t.Fatalf("drain = %+v, want frame 0 count 2", d)
	}
	a.sendFrame(v, 3, 3)

	b := dialRaw(t, ln)
	b.hello(quietHello(v, "cam-b"))

	// Acks carry the surviving source indices — 2 and 3, not 0 and 1.
	if ack := a.expectAck(2); FrameType(ack.Type) != FrameI {
		t.Fatalf("first surviving frame acked as %v, want I", FrameType(ack.Type))
	}
	a.expectAck(3)
	a.closeStream(4)
	b.sendFrame(v, 0, 0)
	b.closeStream(1)
	if err := <-errc; err != nil {
		t.Fatalf("hub run: %v", err)
	}

	if st := lst.Stats(); st.Evicted != 2 || st.Shed != 0 {
		t.Fatalf("Evicted = %d Shed = %d, want 2 and 0", st.Evicted, st.Shed)
	}
	r, err := lst.Store().Open("cam-a")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumFrames() != 2 {
		t.Fatalf("stored %d frames, want the 2 survivors", r.NumFrames())
	}
}

// TestPusherSeeksOnResume covers the client side of reconnect-resume:
// a seekable source rewinds to the server's authoritative cursor, so the
// archived stream is byte-identical to an uninterrupted run even though
// frames beyond the cursor were already pulled.
func TestPusherSeeksOnResume(t *testing.T) {
	v := quietScene(t, 12)
	ln := NewMemListener()
	lst := NewIngestListener(ln)
	hub := NewHub(WithListener(lst))
	errc := startHub(hub)

	// halfConn delivers the handshake plus 5 frames, silently swallows
	// the next 2 (a TCP send buffer the peer never drained), then dies —
	// so the client's cursor ends up AHEAD of the server's and the
	// resume handshake must seek the source back.
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	spec := v.Spec()
	limit := 5*(wire.FrameBytes(spec.Width, spec.Height)+13) + 64
	hc := &halfConn{Conn: conn, budget: limit, swallow: 2}

	p := NewPusher(NewSynthSource(v), WithPusherName("cam"), WithPusherEncoding(quietParams(v)))
	if err := p.Run(context.Background(), hc); err == nil {
		t.Fatal("run over a dying connection succeeded, want retryable error")
	}
	if p.Finished() {
		t.Fatal("pusher finished after a transport failure")
	}

	conn2, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background(), conn2); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("hub run: %v", err)
	}
	ps := p.Stats()
	if ps.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", ps.Reconnects)
	}
	// The two swallowed frames were re-sent after the seek: 12 source
	// frames cost 14 FRAME messages.
	if ps.FramesSent != 14 {
		t.Fatalf("FramesSent = %d, want 14 (12 + 2 re-sent after seek)", ps.FramesSent)
	}
	if ps.CloseReason != "END_OF_STREAM" {
		t.Fatalf("CloseReason = %q, want END_OF_STREAM", ps.CloseReason)
	}
	st := lst.Stats()
	if st.Skipped != 0 {
		t.Fatalf("Skipped = %d, want 0 (seekable source rewound)", st.Skipped)
	}
	got, err := lst.Store().Open("cam")
	if err != nil {
		t.Fatal(err)
	}
	assertStreamEquals(t, got, encodeBaseline(t, v, quietParams(v)))
}

// TestPusherResendsFrameLostInFlight pins the cursor-desync regression:
// a frame pulled from the source whose send fails has still advanced the
// source, so the resume cursor can land exactly on the client's delivered
// count. A naive "already positioned" shortcut would then resume by
// sending the NEXT source frame mislabelled with the lost frame's index —
// silent content corruption. The pusher must rewind the source even when
// the server's cursor equals the number of frames it delivered.
func TestPusherResendsFrameLostInFlight(t *testing.T) {
	v := quietScene(t, 12)
	ln := NewMemListener()
	lst := NewIngestListener(ln)
	hub := NewHub(WithListener(lst))
	errc := startHub(hub)

	// Deliver the handshake plus 4 whole frames, then die on frame 4's
	// write: the source has produced frame 4 but the server never saw it.
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	spec := v.Spec()
	limit := 4*(wire.FrameBytes(spec.Width, spec.Height)+13) + 64
	hc := &halfConn{Conn: conn, budget: limit}

	p := NewPusher(NewSynthSource(v), WithPusherName("cam"), WithPusherEncoding(quietParams(v)))
	if err := p.Run(context.Background(), hc); err == nil {
		t.Fatal("run over a dying connection succeeded, want retryable error")
	}

	conn2, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background(), conn2); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("hub run: %v", err)
	}
	ps := p.Stats()
	// Frame 4's failed send is not counted; it is re-sent after the
	// rewind: 4 delivered + 8 from the seek point.
	if ps.FramesSent != 12 {
		t.Fatalf("FramesSent = %d, want 12 (4 delivered + 8 after rewind)", ps.FramesSent)
	}
	st := lst.Stats()
	if st.Skipped != 0 || st.Duplicates != 0 {
		t.Fatalf("Skipped = %d, Duplicates = %d, want 0/0", st.Skipped, st.Duplicates)
	}
	got, err := lst.Store().Open("cam")
	if err != nil {
		t.Fatal(err)
	}
	assertStreamEquals(t, got, encodeBaseline(t, v, quietParams(v)))
}

// halfConn delivers writes until a byte budget is spent, then pretends
// to accept the next `swallow` writes without delivering them (bytes
// sitting in a TCP send buffer the peer never drains), then closes the
// underlying connection — a deterministic mid-stream network death. Each
// message is one Write call, so budget boundaries are message boundaries.
type halfConn struct {
	net.Conn
	budget  int
	swallow int
	dead    bool
}

func (h *halfConn) Write(p []byte) (int, error) {
	if h.dead {
		return 0, net.ErrClosed
	}
	if h.budget >= len(p) {
		h.budget -= len(p)
		return h.Conn.Write(p)
	}
	if h.swallow > 0 {
		h.swallow--
		return len(p), nil
	}
	h.dead = true
	h.Conn.Close()
	return 0, net.ErrClosed
}

// sleepLog is a deterministic Clock that records every backoff delay
// RunRetry sleeps instead of actually waiting.
type sleepLog struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func (c *sleepLog) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *sleepLog) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.sleeps = append(c.sleeps, d)
	c.mu.Unlock()
	return nil
}

func (c *sleepLog) log() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

// TestPusherRunRetryReconnects drives RunRetry over a scripted flaky
// listener: the first two connections die mid-stream, the third is
// clean. Each failed connection still made progress (frames or a resume
// handshake), so the streak resets and every backoff sleep is the base
// delay; the archived stream must come out byte-identical to an
// uninterrupted run.
func TestPusherRunRetryReconnects(t *testing.T) {
	v := quietScene(t, 12)
	ln := NewMemListener()
	lst := NewIngestListener(ln)
	hub := NewHub(WithListener(lst))
	errc := startHub(hub)

	spec := v.Spec()
	frame := wire.FrameBytes(spec.Width, spec.Height) + 13
	budgets := []int{5*frame + 64, 3*frame + 64} // attempts 1 and 2 die mid-stream
	dials := 0
	dial := func(ctx context.Context) (net.Conn, error) {
		conn, err := ln.Dial()
		if err != nil {
			return nil, err
		}
		if dials < len(budgets) {
			conn = &halfConn{Conn: conn, budget: budgets[dials]}
		}
		dials++
		return conn, nil
	}

	clk := &sleepLog{now: time.Unix(0, 0).UTC()}
	p := NewPusher(NewSynthSource(v), WithPusherName("cam"),
		WithPusherEncoding(quietParams(v)),
		WithPusherBackoff(10*time.Millisecond, 80*time.Millisecond, 4),
		WithPusherClock(clk))
	if err := p.RunRetry(context.Background(), dial); err != nil {
		t.Fatalf("RunRetry: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("hub run: %v", err)
	}

	ps := p.Stats()
	if ps.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", ps.Attempts)
	}
	if ps.Reconnects != 2 {
		t.Fatalf("Reconnects = %d, want 2", ps.Reconnects)
	}
	if ps.CloseReason != "END_OF_STREAM" {
		t.Fatalf("CloseReason = %q, want END_OF_STREAM", ps.CloseReason)
	}
	// Both failed attempts progressed, so the streak never grew past 1:
	// each reconnect waited exactly the base delay.
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond}
	got := clk.log()
	if len(got) != len(want) {
		t.Fatalf("slept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slept %v, want %v", got, want)
		}
	}

	arch, err := lst.Store().Open("cam")
	if err != nil {
		t.Fatal(err)
	}
	assertStreamEquals(t, arch, encodeBaseline(t, v, quietParams(v)))
}

// TestPusherRunRetryExhausts pins the reconnect budget: a dial that never
// succeeds makes no progress, so the streak climbs through the full
// exponential schedule and RunRetry gives up with ErrRetryExhausted after
// exactly MaxAttempts tries.
func TestPusherRunRetryExhausts(t *testing.T) {
	v := quietScene(t, 4)
	unreachable := errors.New("connection refused")
	clk := &sleepLog{now: time.Unix(0, 0).UTC()}
	p := NewPusher(NewSynthSource(v), WithPusherName("cam"),
		WithPusherEncoding(quietParams(v)),
		WithPusherBackoff(10*time.Millisecond, 80*time.Millisecond, 3),
		WithPusherClock(clk))

	err := p.RunRetry(context.Background(), func(ctx context.Context) (net.Conn, error) {
		return nil, unreachable
	})
	if !errors.Is(err, ErrRetryExhausted) {
		t.Fatalf("err = %v, want ErrRetryExhausted", err)
	}
	if !errors.Is(err, unreachable) {
		t.Fatalf("err = %v, want it to wrap the last dial error", err)
	}
	if ps := p.Stats(); ps.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", ps.Attempts)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	got := clk.log()
	if len(got) != len(want) {
		t.Fatalf("slept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slept %v, want %v", got, want)
		}
	}
}

// TestPusherRunRetrySchedule pins the reconnect schedule: no wait before
// the first try, doubling from the base, capped at the max (uncapped when
// the max is 0, saturating instead of overflowing), and a pure function of
// the retry number.
func TestPusherRunRetrySchedule(t *testing.T) {
	ms := time.Millisecond
	b := backoff{base: 10 * ms, max: 80 * ms, attempts: 8}
	want := []time.Duration{0, 10 * ms, 20 * ms, 40 * ms, 80 * ms, 80 * ms, 80 * ms}
	for i, w := range want {
		if d := b.delay(i); d != w {
			t.Fatalf("delay(%d) = %v, want %v", i, d, w)
		}
		if b.delay(i) != b.delay(i) {
			t.Fatalf("delay(%d) not stable", i)
		}
	}
	if d := (backoff{base: 10 * ms, max: 25 * ms}).delay(3); d != 25*ms {
		t.Fatalf("delay past a cap between doublings = %v, want 25ms", d)
	}
	if d := (backoff{base: 10 * ms}).delay(5); d != 160*ms {
		t.Fatalf("uncapped delay(5) = %v, want 160ms", d)
	}
	if d := (backoff{base: 10 * ms}).delay(200); d <= 0 {
		t.Fatalf("uncapped delay(200) = %v, want a positive saturated wait", d)
	}
	if d := (backoff{max: 80 * ms}).delay(3); d != 0 {
		t.Fatalf("zero-base delay = %v, want 0", d)
	}
}
