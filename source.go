package sieve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"sieve/internal/clock"
	"sieve/internal/codec"
	"sieve/internal/container"
	"sieve/internal/frame"
	"sieve/internal/wire"
)

// Clock abstracts time for stream pacing and event timestamps. Production
// code uses RealClock; tests and reproducible replays inject a VirtualClock
// so a paced session is both instant and deterministic.
type Clock = clock.Clock

// VirtualClock is a deterministic clock: Sleep advances it by the requested
// duration without blocking, and Now returns the accumulated virtual time.
// Give each session its own VirtualClock — sharing one across concurrent
// feeds makes their timestamps depend on goroutine interleaving.
type VirtualClock = clock.Virtual

// RealClock returns the wall clock.
func RealClock() Clock { return clock.Wall() }

// NewVirtualClock returns a virtual clock starting at start.
func NewVirtualClock(start time.Time) *VirtualClock { return clock.NewVirtual(start) }

// SourceInfo describes a frame source's geometry and nominal rate.
type SourceInfo struct {
	// Name identifies the feed (camera id, preset name, ...).
	Name string
	// Width and Height are the frame geometry in pixels.
	Width, Height int
	// FPS is the nominal capture rate.
	FPS int
	// Frames is the total frame count when known, or -1 for live/unbounded
	// sources (push feeds).
	Frames int
}

// FrameSource is a pull-based, context-aware stream of video frames — the
// streaming-first entry point of the public API. Implementations in this
// package: SynthSource (synthetic presets rendered frame-at-a-time),
// ReplaySource (SVF replay, optionally paced at capture rate) and PushSource
// (programmatic ingest).
//
// Next returns io.EOF when the stream ends. The returned frame may be
// reused by the next Next call; callers that retain a frame across calls
// must Clone it.
type FrameSource interface {
	Info() SourceInfo
	Next(ctx context.Context) (*Frame, error)
}

// SynthSource streams a synthetic dataset one frame at a time, reusing a
// single frame buffer — hours-long feeds are rendered incrementally, never
// materialised.
type SynthSource struct {
	v   *Dataset
	i   int
	buf *Frame
}

// NewSynthSource wraps a synthetic video as a FrameSource.
func NewSynthSource(v *Dataset) *SynthSource { return &SynthSource{v: v} }

// Info implements FrameSource.
func (s *SynthSource) Info() SourceInfo {
	spec := s.v.Spec()
	return SourceInfo{
		Name: spec.Name, Width: spec.Width, Height: spec.Height,
		FPS: spec.FPS, Frames: s.v.NumFrames(),
	}
}

// Next implements FrameSource.
func (s *SynthSource) Next(ctx context.Context) (*Frame, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.i >= s.v.NumFrames() {
		return nil, io.EOF
	}
	s.buf = s.v.RenderInto(s.i, s.buf)
	s.i++
	return s.buf, nil
}

// Seek positions the source so the next Next returns frame i. Synthetic
// frames are rendered on demand, so seeking in either direction is O(1).
// Seeking to NumFrames() is valid and makes the next Next return io.EOF.
// A Pusher resuming after a reconnect seeks to the server's ResumeFrom.
func (s *SynthSource) Seek(i int) error {
	if i < 0 || i > s.v.NumFrames() {
		return fmt.Errorf("sieve: synth seek %d out of range [0,%d]", i, s.v.NumFrames())
	}
	s.i = i
	return nil
}

// ReplayOption configures a ReplaySource.
type ReplayOption func(*ReplaySource)

// PacedBy makes the replay deliver frames at the stream's capture rate,
// sleeping one frame interval on c between frames. With a VirtualClock the
// replay is instant but the session's timestamps advance exactly as a live
// feed's would.
func PacedBy(c Clock) ReplayOption {
	return func(s *ReplaySource) { s.clock = c }
}

// ReplaySource streams a recorded SVF stream back through the pipeline,
// decoding sequentially — the "replayed-at-rate camera" of the deployment
// story.
type ReplaySource struct {
	r        *container.Reader
	dec      *codec.Decoder
	buf      *Frame // reused decode target (FrameSource contract: valid until next Next)
	i        int
	clock    Clock // nil = as fast as the consumer pulls
	frameDur time.Duration
}

// NewReplaySource wraps a parsed SVF stream as a FrameSource.
func NewReplaySource(r *container.Reader, opts ...ReplayOption) (*ReplaySource, error) {
	dec, err := codec.NewDecoder(r.Info().CodecParams())
	if err != nil {
		return nil, err
	}
	s := &ReplaySource{r: r, dec: dec}
	if fps := r.Info().FPS; fps > 0 {
		s.frameDur = time.Second / time.Duration(fps)
	}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Info implements FrameSource.
func (s *ReplaySource) Info() SourceInfo {
	info := s.r.Info()
	return SourceInfo{
		Name: "replay", Width: info.Width, Height: info.Height,
		FPS: info.FPS, Frames: s.r.NumFrames(),
	}
}

// Next implements FrameSource.
func (s *ReplaySource) Next(ctx context.Context) (*Frame, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.i >= s.r.NumFrames() {
		return nil, io.EOF
	}
	if s.clock != nil && s.i > 0 {
		if err := s.clock.Sleep(ctx, s.frameDur); err != nil {
			return nil, err
		}
	}
	payload, err := s.r.Payload(s.i)
	if err != nil {
		return nil, err
	}
	if s.buf == nil {
		info := s.r.Info()
		s.buf = frame.NewYUV(info.Width, info.Height)
	}
	if err := s.dec.DecodeInto(payload, s.buf); err != nil {
		return nil, fmt.Errorf("sieve: replay frame %d: %w", s.i, err)
	}
	s.i++
	return s.buf, nil
}

// Seek positions the replay so the next Next returns frame target.
// P-frames predict from their predecessor, so seeking rolls the decoder
// forward from the latest I-frame before target (without pacing sleeps);
// seeking to an I-frame or to NumFrames() (end of stream) is O(1). A
// Pusher resuming a replay feed after a reconnect seeks to the server's
// ResumeFrom.
func (s *ReplaySource) Seek(target int) error {
	n := s.r.NumFrames()
	if target < 0 || target > n {
		return fmt.Errorf("sieve: replay seek %d out of range [0,%d]", target, n)
	}
	if target == n || target == 0 || s.r.Meta(target).Type == codec.FrameI {
		s.i = target
		return nil
	}
	// Find the latest I-frame at or before target-1, then decode forward
	// so the decoder's reference is frame target-1.
	start := 0
	for _, m := range s.r.IFrames() {
		if m.Index > target-1 {
			break
		}
		start = m.Index
	}
	if s.buf == nil {
		info := s.r.Info()
		s.buf = frame.NewYUV(info.Width, info.Height)
	}
	for i := start; i < target; i++ {
		payload, err := s.r.Payload(i)
		if err != nil {
			return err
		}
		if err := s.dec.DecodeInto(payload, s.buf); err != nil {
			return fmt.Errorf("sieve: replay seek decoding frame %d: %w", i, err)
		}
	}
	s.i = target
	return nil
}

// ErrSourceClosed is returned by PushSource.Push after Close.
var ErrSourceClosed = errors.New("sieve: push source closed")

// PushSource is a programmatic FrameSource: producers Push frames (camera
// drivers, RTSP adapters, tests) and a Session pulls them. Push blocks when
// the buffer is full, giving producers natural backpressure. The buffer is
// the ingest plane's bounded queue, so a pushed feed and a wire feed close
// and drain alike.
type PushSource struct {
	info SourceInfo
	q    *wire.Queue
}

// NewPushSource returns a push source for the given geometry with an
// internal buffer of the given capacity (minimum 1).
func NewPushSource(name string, width, height, fps, buffer int) *PushSource {
	return &PushSource{
		info: SourceInfo{Name: name, Width: width, Height: height, FPS: fps, Frames: -1},
		q:    wire.NewQueue(buffer),
	}
}

// Push enqueues one frame, blocking while the buffer is full. It returns
// ErrSourceClosed after Close, or the context error on cancellation. The
// pushed frame is handed to the consumer as-is; do not mutate it afterwards.
func (s *PushSource) Push(ctx context.Context, f *Frame) error {
	if f == nil {
		return errors.New("sieve: push of nil frame")
	}
	err := s.q.Push(ctx, wire.Item{F: f})
	if errors.Is(err, wire.ErrQueueClosed) {
		return ErrSourceClosed
	}
	return err
}

// Close ends the stream. Frames already pushed are still delivered; after
// that the consumer sees io.EOF when err is nil, or err itself (a camera
// failure, for instance). Close is idempotent; only the first call counts.
func (s *PushSource) Close(err error) { s.q.Close(err) }

// Info implements FrameSource.
func (s *PushSource) Info() SourceInfo { return s.info }

// Next implements FrameSource.
func (s *PushSource) Next(ctx context.Context) (*Frame, error) {
	it, err := s.q.Pop(ctx)
	return it.F, err
}
