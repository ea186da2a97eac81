package sieve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"sieve/internal/container"
	"sieve/internal/infer"
	"sieve/internal/telemetry"
)

// EventKind discriminates the typed events a Session emits.
type EventKind uint8

const (
	// EventFrameEncoded fires for every frame the semantic encoder accepts.
	EventFrameEncoded EventKind = iota
	// EventIFrame fires when the encoder places an I-frame — the paper's
	// "candidate event" signal the seeker later filters on.
	EventIFrame
	// EventDetection fires when the session's detector has labelled an
	// I-frame.
	EventDetection
	// EventStats carries a SessionStats snapshot: periodic when
	// WithStatsEvery is set, and always once as the final event.
	EventStats
)

// String names the kind for logs.
func (k EventKind) String() string {
	switch k {
	case EventFrameEncoded:
		return "frame"
	case EventIFrame:
		return "iframe"
	case EventDetection:
		return "detection"
	case EventStats:
		return "stats"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one item on a session's event stream. Within a feed, Seq orders
// events totally; across feeds of a Hub the interleaving follows scheduling,
// so durable logs should be keyed by (Feed, Seq).
type Event struct {
	// Site is the edge site that ran the emitting session. It is empty for
	// plain Sessions and Hubs; a Cluster tags every forwarded event with
	// the feed's assigned site.
	Site string
	// Feed is the emitting session's name.
	Feed string
	// Seq is the per-feed sequence number, starting at 0.
	Seq int
	// Kind discriminates which of the remaining fields are meaningful.
	Kind EventKind
	// Time is the session clock's timestamp (deterministic under a
	// VirtualClock).
	Time time.Time
	// Frame is the stream frame index the event refers to.
	Frame int
	// FrameType is the encoded frame's type (EventFrameEncoded/EventIFrame).
	FrameType FrameType
	// Bytes is the encoded payload size (EventFrameEncoded/EventIFrame).
	Bytes int
	// Labels is the detector's label set (EventDetection).
	Labels LabelSet
	// Stats is a counters snapshot (EventStats).
	Stats SessionStats
}

// String renders a stable, human-readable log line. With a VirtualClock and
// a fixed seed the rendered event log is byte-identical run to run.
func (e Event) String() string {
	var b strings.Builder
	if e.Site != "" {
		fmt.Fprintf(&b, "%s/", e.Site)
	}
	fmt.Fprintf(&b, "%s #%d %s t=%s", e.Feed, e.Seq, e.Kind, e.Time.UTC().Format("15:04:05.000"))
	switch e.Kind {
	case EventFrameEncoded, EventIFrame:
		fmt.Fprintf(&b, " frame=%d type=%s bytes=%d", e.Frame, e.FrameType, e.Bytes)
	case EventDetection:
		fmt.Fprintf(&b, " frame=%d labels=%s", e.Frame, e.Labels.Key())
	case EventStats:
		fmt.Fprintf(&b, " frames=%d iframes=%d bytes=%d filter=%.4f",
			e.Stats.Frames, e.Stats.IFrames, e.Stats.PayloadBytes, e.Stats.FilterRate())
	}
	return b.String()
}

// SessionStats are a session's monotonic counters.
type SessionStats struct {
	// Feed is the session name.
	Feed string
	// Frames is the number of frames encoded so far.
	Frames int
	// IFrames is how many of them were I-frames.
	IFrames int
	// PayloadBytes is the encoded stream payload size so far.
	PayloadBytes int64
	// Detections counts detector invocations (one per I-frame when a
	// detector is configured).
	Detections int
}

// FilterRate is the share of frames the I-frame seeker would drop without
// decoding — the streaming counterpart of IFrameSeeker.FilterRate, and equal
// to it on the session's own stream.
func (s SessionStats) FilterRate() float64 {
	if s.Frames == 0 {
		return 0
	}
	return 1 - float64(s.IFrames)/float64(s.Frames)
}

// SessionOption configures a Session (functional options).
type SessionOption func(*sessionConfig)

type sessionConfig struct {
	name       string
	params     *EncoderParams
	quality    int
	det        *Detector
	plane      *InferencePlane
	clock      Clock
	sink       io.WriteSeeker
	statsEvery int
	eventBuf   int
	frameBase  int                 // event frame-number offset, see withFrameBase
	tap        func(Event)         // synchronous observer, see withEventTap
	onDone     func(error)         // completion callback, see withRunDone
	reg        *telemetry.Registry // shared metrics registry, see WithTelemetry
	tracer     *telemetry.Tracer   // span recorder, see WithTracer
	site       string              // owning site label, see withTraceSite
}

// withFrameBase offsets every emitted event's Frame by n. A migrated
// cluster feed resuming at I-frame boundary n encodes a fresh stream whose
// frames the encoder numbers from 0; the base restores the feed's original
// frame numbering so detections land on the right ResultsDB rows. The
// stored SVF stream itself keeps its own zero-based index (it is a
// self-contained tail segment).
func withFrameBase(n int) SessionOption {
	return func(c *sessionConfig) { c.frameBase = n }
}

// withEventTap registers a synchronous event observer: fn runs on the
// session goroutine for every event, before the event is offered to the
// Events channel, so it sees the exact encode order with no buffering.
// The ingest plane uses it to ack encoded frames back to the pushing
// client. fn must be fast and must never block on the session itself.
func withEventTap(fn func(Event)) SessionOption {
	return func(c *sessionConfig) { c.tap = fn }
}

// withRunDone registers a completion callback invoked exactly once when
// Run returns (with Run's error) or when the session is aborted without
// running (with nil). The ingest plane uses it to finalise a wire feed:
// archive the stream, flush trailing acks, and send the closing message.
func withRunDone(fn func(error)) SessionOption {
	return func(c *sessionConfig) { c.onDone = fn }
}

// gapSource is an optional FrameSource refinement for sources that can
// lose frames mid-stream (the wire ingest queue under overload or
// reconnect). TakeGap reports whether the frame most recently returned
// by Next followed one or more lost frames, clearing the flag; the
// session then forces the encoder to start a fresh GOP so the stored
// stream never predicts across the hole.
type gapSource interface {
	TakeGap() bool
}

// WithName names the session's feed (defaults to the source's name).
func WithName(name string) SessionOption {
	return func(c *sessionConfig) { c.name = name }
}

// WithTunedParams sets the full encoder parameters, typically from
// TunedParams after an offline Tune run. Width/Height must match the source.
func WithTunedParams(p EncoderParams) SessionOption {
	return func(c *sessionConfig) { c.params = &p }
}

// WithQuality overrides the encoder quality in [1,100] (default 85).
func WithQuality(q int) SessionOption {
	return func(c *sessionConfig) { c.quality = q }
}

// WithDetector runs d on every I-frame and emits EventDetection events. The
// detector reads the encoder's reconstruction of the frame, which equals a
// decode of the stored payload byte for byte, so its labels are the ones a
// later scan of the archive finds, without a second decode at the edge.
// Internally this is the trivial batch-of-1 configuration of the inference
// plane: the session builds a private InferencePlane around d, so the
// per-frame and batched paths share one code path (and therefore one set of
// results). To amortise the forward pass across feeds, share a plane
// instead: WithInferencePlane here, WithHubInference on a Hub,
// WithClusterInference on a Cluster.
func WithDetector(d *Detector) SessionOption {
	return func(c *sessionConfig) { c.det = d }
}

// WithInferencePlane routes the session's I-frame detections through a
// shared batched-inference plane (see InferencePlane). Mutually exclusive
// with WithDetector — configure inference one way per session.
func WithInferencePlane(p *InferencePlane) SessionOption {
	return func(c *sessionConfig) { c.plane = p }
}

// WithClock injects the session clock used for event timestamps (default
// the wall clock). Pair with a paced ReplaySource sharing the same
// VirtualClock for deterministic, instant replays.
func WithClock(clk Clock) SessionOption {
	return func(c *sessionConfig) { c.clock = clk }
}

// WithSink persists the encoded SVF stream to ws (an *os.File, a
// container.Buffer, ...). Without it the session encodes into an internal
// buffer exposed by Stream.
func WithSink(ws io.WriteSeeker) SessionOption {
	return func(c *sessionConfig) { c.sink = ws }
}

// WithStatsEvery emits an EventStats snapshot every n encoded frames
// (default: only the final snapshot).
func WithStatsEvery(n int) SessionOption {
	return func(c *sessionConfig) { c.statsEvery = n }
}

// Session consumes one FrameSource incrementally through the semantic
// encoder and emits typed Events on a channel. Create with NewSession,
// consume Events while Run executes, inspect Stats/Stream afterwards.
//
// A session is single-producer: Run encodes frames strictly in source order
// on one goroutine, so with a deterministic source and a VirtualClock the
// event sequence is byte-identical run to run (the acceptance bar for
// reproducible streaming evaluations).
type Session struct {
	src    FrameSource
	cfg    sessionConfig
	enc    *SemanticEncoder
	buf    *container.Buffer // non-nil when no external sink was given
	events chan Event

	// Counters are registry instruments (a private registry when no
	// WithTelemetry was given), updated lock-free from the encode loop.
	// The session goroutine is their only writer, so its own EventStats
	// snapshots are exact; concurrent Stats() readers see each counter
	// atomically but not a cross-counter cut (the standard monitoring
	// contract).
	frames     *telemetry.Counter
	iframes    *telemetry.Counter
	payload    *telemetry.Counter
	detections *telemetry.Counter
	frameBytes *telemetry.Histogram
	trace      *telemetry.Scope // nil unless a tracer was attached

	mu       sync.Mutex
	ran      bool
	finished bool // stream index finalised (Run completed successfully)
	seq      int
}

// NewSession builds a session over src. The encoder geometry defaults to
// the source's, with the paper's default parameters unless WithTunedParams
// or WithQuality override them.
func NewSession(src FrameSource, opts ...SessionOption) (*Session, error) {
	if src == nil {
		return nil, errors.New("sieve: nil frame source")
	}
	info := src.Info()
	cfg := sessionConfig{eventBuf: 64}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.name == "" {
		cfg.name = info.Name
	}
	if cfg.clock == nil {
		cfg.clock = RealClock()
	}
	params := DefaultParams(info.Width, info.Height)
	if cfg.params != nil {
		params = *cfg.params
	}
	if cfg.quality != 0 {
		params.Quality = cfg.quality
	}
	if params.Width != info.Width || params.Height != info.Height {
		return nil, fmt.Errorf("sieve: session %s: params %dx%d do not match source %dx%d",
			cfg.name, params.Width, params.Height, info.Width, info.Height)
	}
	s := &Session{src: src, cfg: cfg, events: make(chan Event, cfg.eventBuf)}
	if s.cfg.reg == nil {
		s.cfg.reg = telemetry.NewRegistry()
	}
	describeSessionMetrics(s.cfg.reg)
	labels := feedSeriesLabels(cfg.site, cfg.name)
	s.frames = s.cfg.reg.Counter("sieve_frames_total", labels...)
	s.iframes = s.cfg.reg.Counter("sieve_iframes_total", labels...)
	s.payload = s.cfg.reg.Counter("sieve_payload_bytes_total", labels...)
	s.detections = s.cfg.reg.Counter("sieve_detections_total", labels...)
	s.frameBytes = s.cfg.reg.Histogram("sieve_frame_bytes", frameBytesBounds, labels...)
	s.trace = cfg.tracer.Scope(cfg.site, cfg.name)
	sink := cfg.sink
	if sink == nil {
		s.buf = &container.Buffer{}
		sink = s.buf
	}
	fps := info.FPS
	if fps <= 0 {
		fps = 1
	}
	enc, err := NewSemanticEncoder(sink, params, fps)
	if err != nil {
		return nil, fmt.Errorf("sieve: session %s: %w", cfg.name, err)
	}
	s.enc = enc
	// Inference wiring: WithDetector is sugar for a private batch-of-1
	// plane, so per-frame and batched detection share one code path.
	if s.cfg.det != nil && s.cfg.plane != nil {
		return nil, fmt.Errorf("sieve: session %s: WithDetector and WithInferencePlane are mutually exclusive", cfg.name)
	}
	if s.cfg.det != nil {
		s.cfg.plane = NewInferencePlane(s.cfg.det, 1)
	}
	return s, nil
}

// Name returns the session's feed name.
func (s *Session) Name() string { return s.cfg.name }

// Events returns the session's event stream. It is closed when Run returns.
func (s *Session) Events() <-chan Event { return s.events }

// Stats returns a counters snapshot; safe to call concurrently with Run.
// SessionStats is a view over the session's registry instruments: each
// counter is read atomically, and because the session goroutine is the
// only writer, snapshots it takes itself (the EventStats payloads) are
// exact. A concurrent reader may observe counters from slightly different
// instants — individually correct and monotonic, not a frozen cut.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Feed:         s.cfg.name,
		Frames:       int(s.frames.Value()),
		IFrames:      int(s.iframes.Value()),
		PayloadBytes: s.payload.Value(),
		Detections:   int(s.detections.Value()),
	}
}

// Telemetry returns the session's metrics registry (the one given via
// WithTelemetry, or the session's private default).
func (s *Session) Telemetry() *Registry { return s.cfg.reg }

// Stream opens a reader over the encoded stream. Only available after Run
// has completed successfully (the index is finalised then — while Run is in
// flight the buffer is still being written), and only when the session
// encoded into its internal buffer (no WithSink).
func (s *Session) Stream() (*container.Reader, error) {
	s.mu.Lock()
	finished := s.finished
	s.mu.Unlock()
	if !finished {
		return nil, fmt.Errorf("sieve: session %s: Stream before Run completed", s.cfg.name)
	}
	if s.buf == nil {
		return nil, fmt.Errorf("sieve: session %s: stream was written to an external sink", s.cfg.name)
	}
	return OpenStream(s.buf, s.buf.Size())
}

// Run pulls frames from the source until io.EOF, encoding each and emitting
// events, then finalises the stream index and emits a final EventStats. It
// closes Events on return. Run may be called once.
func (s *Session) Run(ctx context.Context) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.ran {
		s.mu.Unlock()
		return fmt.Errorf("sieve: session %s: already run", s.cfg.name)
	}
	s.ran = true
	s.mu.Unlock()
	if s.cfg.onDone != nil {
		defer func() { s.cfg.onDone(err) }()
	}
	defer close(s.events)

	// Register with the inference plane only while actually running: the
	// plane flushes a partial batch once every *registered* submitter is
	// blocked, so the registered set must be exactly the sessions that can
	// still contribute frames (a pool-queued or finished session must not
	// hold a batch open).
	var inferC *infer.Client
	if s.cfg.plane != nil {
		inferC = s.cfg.plane.p.Register()
		defer inferC.Close()
	}

	// One EncodedFrame reused across the whole feed: with the zero-alloc
	// encoder hot path the per-frame loop stops allocating once ef.Data and
	// the encoder's internal buffers reach steady-state capacity. Telemetry
	// keeps that property: counter updates are atomic adds on
	// pre-registered instruments, and span handles are stack values whose
	// storage is amortised inside the tracer.
	var ef EncodedFrame
	gaps, _ := s.src.(gapSource)
	for {
		// The encoder numbers frames sequentially, so the frame about to be
		// pulled is the current frame count; a pull that ends in EOF or an
		// error records no span.
		next := s.cfg.frameBase + int(s.frames.Value())
		pullSp := s.trace.Start(telemetry.StagePull, next)
		f, err := s.src.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("sieve: session %s: source: %w", s.cfg.name, err)
		}
		pullSp.End()
		if gaps != nil && gaps.TakeGap() {
			s.enc.ForceNextI()
		}
		encSp := s.trace.Start(telemetry.StageEncode, next)
		if err := s.enc.EncodeInto(f, &ef); err != nil {
			return fmt.Errorf("sieve: session %s: %w", s.cfg.name, err)
		}
		encSp.End()
		frames := int(s.frames.Inc())
		s.payload.Add(int64(len(ef.Data)))
		s.frameBytes.Observe(int64(len(ef.Data)))
		if ef.Type == FrameI {
			s.iframes.Inc()
		}

		ev := Event{Kind: EventFrameEncoded, Frame: s.cfg.frameBase + ef.Number, FrameType: ef.Type, Bytes: len(ef.Data)}
		if !s.emit(ctx, ev) {
			return ctx.Err()
		}
		if ef.Type == FrameI {
			// The filter span marks the frame surviving the I-frame sieve
			// (the paper's candidate-event signal) and covers handing it to
			// the consumer, so backpressure shows up in the trace.
			filterSp := s.trace.Start(telemetry.StageFilter, s.cfg.frameBase+ef.Number)
			ev.Kind = EventIFrame
			if !s.emit(ctx, ev) {
				return ctx.Err()
			}
			filterSp.End()
			if inferC != nil {
				inferSp := s.trace.Start(telemetry.StageInfer, s.cfg.frameBase+ef.Number)
				// The detector reads the encoder's reconstruction of the
				// frame, the pixels any decoder of the payload produces, in
				// place: the plane only reads it until Infer returns, and the
				// next encode, which rewrites it, comes after that.
				set, err := inferC.Infer(ctx, s.enc.recon())
				if err != nil {
					return err
				}
				inferSp.End()
				s.detections.Inc()
				if !s.emit(ctx, Event{Kind: EventDetection, Frame: s.cfg.frameBase + ef.Number, Labels: set}) {
					return ctx.Err()
				}
			}
		}
		if s.cfg.statsEvery > 0 && frames%s.cfg.statsEvery == 0 {
			if !s.emit(ctx, Event{Kind: EventStats, Frame: s.cfg.frameBase + ef.Number, Stats: s.Stats()}) {
				return ctx.Err()
			}
		}
	}
	if err := s.enc.Close(); err != nil {
		return fmt.Errorf("sieve: session %s: closing stream: %w", s.cfg.name, err)
	}
	s.mu.Lock()
	s.finished = true
	s.mu.Unlock()
	last := s.cfg.frameBase + s.Stats().Frames - 1
	if !s.emit(ctx, Event{Kind: EventStats, Frame: last, Stats: s.Stats()}) {
		return ctx.Err()
	}
	return nil
}

// emit sends one event, honouring cancellation so a stalled consumer cannot
// wedge the session past its context.
func (s *Session) emit(ctx context.Context, ev Event) bool {
	ev.Feed = s.cfg.name
	ev.Time = s.cfg.clock.Now()
	s.mu.Lock()
	ev.Seq = s.seq
	s.seq++
	s.mu.Unlock()
	if s.cfg.tap != nil {
		s.cfg.tap(ev)
	}
	select {
	case s.events <- ev:
		return true
	case <-ctx.Done():
		return false
	}
}

// salvage finalises the stream index of a session whose Run was cancelled
// mid-stream (its site crashed), making the partial SVF stream readable:
// without the trailing index a partial stream cannot be opened at all, so
// the failover controller closes it before archiving the tail for replay.
// Must only be called after Run has returned (frames are appended whole,
// so the truncation point is always a frame boundary). Reports whether the
// stream is now readable; a no-op when Run already finalised it.
func (s *Session) salvage() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return true
	}
	if !s.ran {
		return false
	}
	if err := s.enc.Close(); err != nil {
		return false
	}
	s.finished = true
	return true
}

// abort closes the event stream of a session that will never run (a Hub
// feed skipped by cancellation). No-op if Run already started.
func (s *Session) abort() {
	s.mu.Lock()
	if s.ran {
		s.mu.Unlock()
		return
	}
	s.ran = true
	close(s.events)
	s.mu.Unlock()
	if s.cfg.onDone != nil {
		s.cfg.onDone(nil)
	}
}

// EncodeStream is the batch entry point, now a thin wrapper over Session:
// it drains src through a session writing the SVF stream to ws and returns
// the final stats. One code path serves both batch and streaming.
func EncodeStream(ctx context.Context, src FrameSource, ws io.WriteSeeker, opts ...SessionOption) (SessionStats, error) {
	if ws == nil {
		return SessionStats{}, errors.New("sieve: nil sink")
	}
	opts = append(opts[:len(opts):len(opts)], WithSink(ws))
	sess, err := NewSession(src, opts...)
	if err != nil {
		return SessionStats{}, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sess.Events() {
		}
	}()
	err = sess.Run(ctx)
	<-done
	return sess.Stats(), err
}
