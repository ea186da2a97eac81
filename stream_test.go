package sieve

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"sieve/internal/codec"
	"sieve/internal/container"
	"sieve/internal/frame"
	"sieve/internal/synth"
)

// testClock returns a fresh virtual clock at a fixed epoch.
func testClock() *VirtualClock { return NewVirtualClock(time.Unix(0, 0).UTC()) }

// smallDataset renders a short deterministic feed for streaming tests: a
// tiny custom scene (cheap enough for the race detector on one core) with
// one crossing car so scenecut I-frames actually fire.
func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	v, err := synth.New(synth.Spec{
		Name: "unit", Width: 128, Height: 80, FPS: 5, NumFrames: 12,
		NoiseAmp: 1,
		Objects: []synth.Object{{
			Class: synth.Car, Enter: 3, Exit: 9, Lane: 0.7, Speed: 24,
			Scale: 0.3, Color: frame.RGB{R: 200, G: 40, B: 40}, Seed: 7,
		}},
		Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// encodeReference writes every frame of v into an SVF stream with
// codec.Encoder and container.Writer directly: the reference the session
// and hub streams are checked against, sharing no code with the session's
// encode loop.
func encodeReference(t *testing.T, v *Dataset, p EncoderParams) *container.Buffer {
	t.Helper()
	enc, err := codec.NewEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	buf := &container.Buffer{}
	w, err := container.NewWriter(buf, container.StreamInfo{
		Width: p.Width, Height: p.Height, FPS: v.Spec().FPS,
		Quality: enc.Params().Quality, GOPSize: p.GOPSize, Scenecut: p.Scenecut,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v.NumFrames(); i++ {
		ef, err := enc.Encode(v.Frame(i))
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
	return buf
}

// drainLog runs a session to completion, returning the rendered event log.
func drainLog(t *testing.T, sess *Session) []string {
	t.Helper()
	var log []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sess.Events() {
			log = append(log, ev.String())
		}
	}()
	if err := sess.Run(context.Background()); err != nil {
		t.Fatalf("session run: %v", err)
	}
	<-done
	return log
}

func TestSynthSourceStreamsExactFrames(t *testing.T) {
	v := smallDataset(t)
	src := NewSynthSource(v)
	ctx := context.Background()
	for i := 0; i < v.NumFrames(); i++ {
		f, err := src.Next(ctx)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !f.Equal(v.Frame(i)) {
			t.Fatalf("streamed frame %d differs from batch render", i)
		}
	}
	if _, err := src.Next(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
	info := src.Info()
	if info.Frames != v.NumFrames() || info.FPS != 5 {
		t.Fatalf("info = %+v", info)
	}
}

func TestSessionEventLogDeterministic(t *testing.T) {
	run := func() []string {
		sess, err := NewSession(NewSynthSource(smallDataset(t)),
			WithClock(testClock()))
		if err != nil {
			t.Fatal(err)
		}
		return drainLog(t, sess)
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty event log")
	}
	if len(a) != len(b) {
		t.Fatalf("log lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

func TestSessionMatchesBatchSeeker(t *testing.T) {
	v := smallDataset(t)
	spec := v.Spec()
	params := DefaultParams(spec.Width, spec.Height)

	// Batch path: the pre-streaming flow, a frame loop over the codec.
	batchBuf := encodeReference(t, v, params)
	br, err := OpenStream(batchBuf, batchBuf.Size())
	if err != nil {
		t.Fatal(err)
	}
	batchRate := NewIFrameSeeker(br).FilterRate()

	// Streaming path: same parameters through a Session.
	sess, err := NewSession(NewSynthSource(v), WithTunedParams(params), WithClock(testClock()))
	if err != nil {
		t.Fatal(err)
	}
	drainLog(t, sess)
	stats := sess.Stats()
	if stats.Frames != v.NumFrames() {
		t.Fatalf("session encoded %d frames, want %d", stats.Frames, v.NumFrames())
	}
	if stats.FilterRate() != batchRate {
		t.Fatalf("session filter rate %.4f != batch seeker %.4f", stats.FilterRate(), batchRate)
	}
	sr, err := sess.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if got := NewIFrameSeeker(sr).FilterRate(); got != batchRate {
		t.Fatalf("session stream seeker rate %.4f != batch %.4f", got, batchRate)
	}
}

func TestEncodeStreamMatchesManualEncode(t *testing.T) {
	v := smallDataset(t)
	spec := v.Spec()
	params := DefaultParams(spec.Width, spec.Height)

	manual := encodeReference(t, v, params)

	var streamed container.Buffer
	stats, err := EncodeStream(context.Background(), NewSynthSource(v), &streamed,
		WithTunedParams(params))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames != v.NumFrames() {
		t.Fatalf("stats.Frames = %d, want %d", stats.Frames, v.NumFrames())
	}
	if string(manual.Bytes()) != string(streamed.Bytes()) {
		t.Fatalf("EncodeStream produced different bytes than the manual encoder loop (%d vs %d bytes)",
			len(manual.Bytes()), len(streamed.Bytes()))
	}
}

func TestReplaySourcePacedByVirtualClock(t *testing.T) {
	v := smallDataset(t)
	var buf container.Buffer
	if _, err := EncodeStream(context.Background(), NewSynthSource(v), &buf); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStream(&buf, buf.Size())
	if err != nil {
		t.Fatal(err)
	}
	clock := testClock()
	start := clock.Now()
	src, err := NewReplaySource(r, PacedBy(clock))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	ctx := context.Background()
	for {
		_, err := src.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != v.NumFrames() {
		t.Fatalf("replayed %d frames, want %d", n, v.NumFrames())
	}
	// Pacing sleeps one frame interval between frames: (n-1) * 1/fps.
	want := time.Duration(n-1) * (time.Second / 5)
	if got := clock.Now().Sub(start); got != want {
		t.Fatalf("virtual clock advanced %v, want %v", got, want)
	}
}

func TestPushSourceDeliversAndCloses(t *testing.T) {
	v := smallDataset(t)
	spec := v.Spec()
	src := NewPushSource("push", spec.Width, spec.Height, spec.FPS, 4)
	ctx := context.Background()
	go func() {
		for i := 0; i < v.NumFrames(); i++ {
			if err := src.Push(ctx, v.Frame(i)); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
		src.Close(nil)
	}()
	sess, err := NewSession(src, WithClock(testClock()))
	if err != nil {
		t.Fatal(err)
	}
	drainLog(t, sess)
	if got := sess.Stats().Frames; got != v.NumFrames() {
		t.Fatalf("session saw %d frames, want %d", got, v.NumFrames())
	}
	if err := src.Push(ctx, v.Frame(0)); !errors.Is(err, ErrSourceClosed) {
		t.Fatalf("push after close: %v, want ErrSourceClosed", err)
	}
}

func TestPushSourceSurfacesProducerError(t *testing.T) {
	v := smallDataset(t)
	spec := v.Spec()
	src := NewPushSource("push", spec.Width, spec.Height, spec.FPS, 2)
	cameraErr := errors.New("camera unplugged")
	go func() {
		_ = src.Push(context.Background(), v.Frame(0))
		src.Close(cameraErr)
	}()
	sess, err := NewSession(src, WithClock(testClock()))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range sess.Events() {
		}
	}()
	err = sess.Run(context.Background())
	if err == nil || !errors.Is(err, cameraErr) {
		t.Fatalf("session error = %v, want wrapped camera error", err)
	}
	if got := sess.Stats().Frames; got != 1 {
		t.Fatalf("frames before failure = %d, want 1", got)
	}
}

func TestSessionGeometryMismatchRejected(t *testing.T) {
	v := smallDataset(t)
	_, err := NewSession(NewSynthSource(v), WithTunedParams(DefaultParams(64, 64)))
	if err == nil {
		t.Fatal("mismatched params accepted")
	}
}

func TestStreamUnavailableBeforeRunCompletes(t *testing.T) {
	sess, err := NewSession(NewSynthSource(smallDataset(t)), WithClock(testClock()))
	if err != nil {
		t.Fatal(err)
	}
	// The buffer is still being written until Run finalises the index;
	// handing out a reader earlier would race the encoder.
	if _, err := sess.Stream(); err == nil {
		t.Fatal("Stream before Run completed was accepted")
	}
}

func TestSessionDoubleRunRejected(t *testing.T) {
	sess, err := NewSession(NewSynthSource(smallDataset(t)), WithClock(testClock()))
	if err != nil {
		t.Fatal(err)
	}
	drainLog(t, sess)
	if err := sess.Run(context.Background()); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestSynthSourceSeek covers the O(1) seek a resuming Pusher relies on:
// any position, either direction, NumFrames() as a valid end-of-stream
// target.
func TestSynthSourceSeek(t *testing.T) {
	v := smallDataset(t)
	src := NewSynthSource(v)
	want := v.RenderInto(7, nil)
	if err := src.Seek(7); err != nil {
		t.Fatal(err)
	}
	got, err := src.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("seeked frame differs from directly rendered frame 7")
	}
	// Backwards is just as cheap.
	if err := src.Seek(2); err != nil {
		t.Fatal(err)
	}
	if f, err := src.Next(context.Background()); err != nil || !f.Equal(v.RenderInto(2, nil)) {
		t.Fatalf("seek back to 2: err=%v", err)
	}
	// Seeking to NumFrames() positions at end of stream.
	if err := src.Seek(v.NumFrames()); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(context.Background()); !errors.Is(err, io.EOF) {
		t.Fatalf("Next after end seek = %v, want io.EOF", err)
	}
	if err := src.Seek(v.NumFrames() + 1); err == nil {
		t.Fatal("out-of-range seek accepted")
	}
}

// TestReplaySourceSeek covers the decoder-aware seek: a P-frame target
// rolls forward from the latest preceding I-frame, so the delivered
// frame is byte-identical to a sequential decode.
func TestReplaySourceSeek(t *testing.T) {
	v := smallDataset(t)
	var buf container.Buffer
	if _, err := EncodeStream(context.Background(), NewSynthSource(v), &buf); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStream(&buf, buf.Size())
	if err != nil {
		t.Fatal(err)
	}
	// Pick a P-frame target so the seek really has to roll the decoder.
	target := -1
	for i := r.NumFrames() - 1; i > 0; i-- {
		if r.Meta(i).Type == FrameP {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("stream has no P-frames to target")
	}
	seq, err := NewReplaySource(r)
	if err != nil {
		t.Fatal(err)
	}
	var want *Frame
	for i := 0; i <= target; i++ {
		f, err := seq.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if i == target {
			want = f.Clone()
		}
	}
	skp, err := NewReplaySource(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := skp.Seek(target); err != nil {
		t.Fatal(err)
	}
	got, err := skp.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("seeked frame %d differs from sequential decode", target)
	}
	// And the stream continues normally past the seek target.
	rest := 0
	for {
		if _, err := skp.Next(context.Background()); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			break
		}
		rest++
	}
	if want := r.NumFrames() - target - 1; rest != want {
		t.Fatalf("frames after seek target = %d, want %d", rest, want)
	}
	// End-of-stream seek is valid; past it is not.
	if err := skp.Seek(r.NumFrames()); err != nil {
		t.Fatal(err)
	}
	if _, err := skp.Next(context.Background()); !errors.Is(err, io.EOF) {
		t.Fatalf("Next after end seek = %v, want io.EOF", err)
	}
	if err := skp.Seek(r.NumFrames() + 1); err == nil {
		t.Fatal("out-of-range seek accepted")
	}
}
