package sieve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"sieve/internal/codec"
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
	// EventStats carries the session's final SessionStats snapshot, once,
	// as its last event.
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
	// Site is the edge site that ran the emitting session: the feed's
	// assigned site under a Cluster, or the adoptive site once the feed has
	// failed over. It is empty for plain Sessions and Hubs.
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

// Counts are the frame counters every level reports, embedded in
// SessionStats, HubStats and ClusterStats: a hub's are the sum of its
// feeds', a cluster's the sum of its sites'.
type Counts struct {
	// Frames is the number of frames encoded so far.
	Frames int
	// IFrames is how many of them were I-frames.
	IFrames int
	// Detections counts detector invocations (one per I-frame when a
	// detector is configured).
	Detections int
	// PayloadBytes is the encoded stream payload size so far.
	PayloadBytes int64
}

// Add folds o into c.
func (c *Counts) Add(o Counts) {
	c.Frames += o.Frames
	c.IFrames += o.IFrames
	c.Detections += o.Detections
	c.PayloadBytes += o.PayloadBytes
}

// FilterRate is the share of frames the I-frame seeker would drop without
// decoding — the streaming counterpart of IFrameSeeker.FilterRate, and equal
// to it on a session's own stream.
func (c Counts) FilterRate() float64 {
	if c.Frames == 0 {
		return 0
	}
	return 1 - float64(c.IFrames)/float64(c.Frames)
}

// SessionStats are a session's monotonic counters plus its terminal error.
type SessionStats struct {
	// Feed is the session name.
	Feed string
	Counts
	// Err is the session's terminal error message: Run's error, or the
	// cause a session that never ran was abandoned with ("" while running
	// or on success).
	Err string
}

// SessionOption configures a Session (functional options).
type SessionOption func(*sessionConfig)

type sessionConfig struct {
	name      string
	params    *EncoderParams
	det       *Detector
	clock     Clock
	sink      io.WriteSeeker
	frameBase int         // event frame-number offset, see withFrameBase
	tap       func(Event) // synchronous observer, see withEventTap
	onDone    func(error) // completion callback, see withRunDone
	own       owner       // inherited from the hub that runs the session, see withOwner
}

// owner is the state a session inherits from whoever runs its feed — a
// Hub, or a Cluster's site hub — handed down as one value so no level
// restates it. The session registers its per-feed series
// (sieve_frames_total, sieve_iframes_total, sieve_payload_bytes_total,
// sieve_detections_total and the sieve_frame_bytes histogram, labelled
// {feed}, plus {site} under a Cluster) in reg, records its spans into
// tracer under the site, submits its I-frames to plane, and publishes
// each event onto events after running hook on it. A standalone session
// has the zero owner: a private registry and none of the rest.
type owner struct {
	reg    *telemetry.Registry
	site   string
	tracer *telemetry.Tracer // nil = tracing off
	plane  *infer.Plane      // shared inference plane, nil = none
	events chan Event        // the owner's stream (a hub's or a cluster's), nil = the session's own
	hook   eventHook         // the cluster site's per-event work, nil = none
}

// eventHook is a cluster site's work for one event of its feeds (see
// Cluster.siteHook), run by emit on the session goroutine with the
// session's context. ship is the site-wide span scope (nil when the feed
// is not traced).
type eventHook func(ctx context.Context, ev Event, ship *telemetry.Scope)

// noEvents is the closed channel Events returns for a hub or cluster feed.
var noEvents = func() chan Event { ch := make(chan Event); close(ch); return ch }()

// withOwner hands a session its owner's state. Threaded by Hub.Add and by
// failover.
func withOwner(o owner) SessionOption {
	return func(c *sessionConfig) { c.own = o }
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
// session goroutine for every event, before the owner's hook and before
// the event is published, so it sees the exact encode order with no
// buffering.
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

// WithDetector runs d on every I-frame and emits EventDetection events. The
// detector reads the encoder's reconstruction of the frame, which equals a
// decode of the stored payload byte for byte, so its labels are the ones a
// later scan of the archive finds, without a second decode at the edge.
// Internally this is the trivial batch-of-1 configuration of the inference
// plane: the session builds a private plane around d, so the per-frame and
// batched paths share one code path (and therefore one set of results). To
// amortise the forward pass across feeds, share a plane instead:
// WithHubInference on a Hub, WithClusterInference on a Cluster — whose
// feeds then take no WithDetector of their own.
func WithDetector(d *Detector) SessionOption {
	return func(c *sessionConfig) { c.det = d }
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
	enc    *codec.Encoder
	w      *container.Writer // the SVF stream enc's payloads are appended to
	buf    *container.Buffer // non-nil when no external sink was given
	events chan Event        // where emit publishes: the owner's stream, or the session's own
	ship   *telemetry.Scope  // the site-wide span scope emit hands the owner's hook

	// Counters are registry instruments (the owning hub's or cluster's
	// registry, or a private one for a standalone session), updated
	// lock-free from the encode loop.
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
	finished bool  // stream index finalised (Run completed successfully)
	err      error // terminal outcome: Run's error or abort's cause
	seq      int
}

// NewSession builds a session over src. The encoder geometry defaults to
// the source's, with the paper's default parameters unless WithTunedParams
// overrides them.
func NewSession(src FrameSource, opts ...SessionOption) (*Session, error) {
	if src == nil {
		return nil, errors.New("sieve: nil frame source")
	}
	info := src.Info()
	var cfg sessionConfig
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
	if params.Width != info.Width || params.Height != info.Height {
		return nil, fmt.Errorf("sieve: session %s: params %dx%d do not match source %dx%d",
			cfg.name, params.Width, params.Height, info.Width, info.Height)
	}
	s := &Session{src: src, cfg: cfg, events: cfg.own.events}
	if s.events == nil {
		s.events = make(chan Event, 64) // a few frames' events while the consumer catches up
	}
	if s.cfg.own.reg == nil {
		s.cfg.own.reg = telemetry.NewRegistry()
	}
	reg := s.cfg.own.reg
	describeSessionMetrics(reg)
	labels := feedSeriesLabels(cfg.own.site, cfg.name)
	s.frames = reg.Counter("sieve_frames_total", labels...)
	s.iframes = reg.Counter("sieve_iframes_total", labels...)
	s.payload = reg.Counter("sieve_payload_bytes_total", labels...)
	s.detections = reg.Counter("sieve_detections_total", labels...)
	s.frameBytes = reg.Histogram("sieve_frame_bytes", frameBytesBounds, labels...)
	s.trace = cfg.own.tracer.Scope(cfg.own.site, cfg.name)
	s.ship = cfg.own.tracer.Scope(cfg.own.site, "")
	sink := cfg.sink
	if sink == nil {
		s.buf = &container.Buffer{}
		sink = s.buf
	}
	fps := info.FPS
	if fps <= 0 {
		fps = 1
	}
	enc, err := codec.NewEncoder(params)
	if err != nil {
		return nil, fmt.Errorf("sieve: session %s: %w", cfg.name, err)
	}
	w, err := container.NewWriter(sink, container.StreamInfo{
		Width: params.Width, Height: params.Height, FPS: fps,
		Quality: enc.Params().Quality, GOPSize: params.GOPSize, Scenecut: params.Scenecut,
	})
	if err != nil {
		return nil, fmt.Errorf("sieve: session %s: %w", cfg.name, err)
	}
	s.enc, s.w = enc, w
	// Inference wiring: WithDetector is sugar for a private batch-of-1
	// plane, so per-frame and batched detection share one code path. Its
	// counters go to a private registry, not the owner's: only a shared
	// plane's series belong on the owner's /metrics.
	if s.cfg.det != nil {
		if s.cfg.own.plane != nil {
			return nil, fmt.Errorf("sieve: session %s: WithDetector conflicts with the hub's shared inference plane", cfg.name)
		}
		s.cfg.own.plane = newPlane(s.cfg.det, 1, nil, telemetry.NewRegistry(), "")
	}
	return s, nil
}

// Name returns the session's feed name.
func (s *Session) Name() string { return s.cfg.name }

// Events returns the session's event stream, closed when Run returns. A
// feed of a Hub or a Cluster has no stream of its own: it publishes onto
// its owner's (Hub.Events, Cluster.Events), and its Events returns a
// closed channel, so no reader hangs on it.
func (s *Session) Events() <-chan Event {
	if s.cfg.own.events != nil {
		return noEvents
	}
	return s.events
}

// Stats returns a counters snapshot; safe to call concurrently with Run.
// SessionStats is a view over the session's registry instruments: each
// counter is read atomically, and because the session goroutine is the
// only writer, snapshots it takes itself (the EventStats payloads) are
// exact. A concurrent reader may observe counters from slightly different
// instants — individually correct and monotonic, not a frozen cut.
func (s *Session) Stats() SessionStats {
	st := SessionStats{Feed: s.cfg.name, Counts: Counts{
		Frames:       int(s.frames.Value()),
		IFrames:      int(s.iframes.Value()),
		PayloadBytes: s.payload.Value(),
		Detections:   int(s.detections.Value()),
	}}
	if err := s.outcome(); err != nil {
		st.Err = err.Error()
	}
	return st
}

// outcome is the session's terminal error: Run's error, abort's cause, or
// nil while running or on success.
func (s *Session) outcome() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Telemetry returns the session's metrics registry (its hub's or
// cluster's, or a private one for a standalone session).
func (s *Session) Telemetry() *Registry { return s.cfg.own.reg }

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
// closes the session's own Events on return. Run may be called once.
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
	if s.cfg.own.events == nil { // an owner's stream is the owner's to close
		defer close(s.events)
	}
	defer func() {
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
	}()

	var inferC *infer.Client
	if s.cfg.own.plane != nil {
		inferC = s.cfg.own.plane.Register()
	}

	// One EncodedFrame reused across the whole feed: with the zero-alloc
	// encoder hot path the per-frame loop stops allocating once ef.Data and
	// the encoder's internal buffers reach steady-state capacity. Telemetry
	// keeps that property: counter updates are atomic adds on
	// pre-registered instruments, and span handles are stack values whose
	// storage is amortised inside the tracer.
	var ef codec.EncodedFrame
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
		if err := s.w.WriteEncoded(&ef); err != nil {
			return fmt.Errorf("sieve: session %s: %w", s.cfg.name, err)
		}
		encSp.End()
		s.frames.Inc()
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
				runtime.Gosched() // see the yield at the end of the loop
				inferSp := s.trace.Start(telemetry.StageInfer, s.cfg.frameBase+ef.Number)
				// The detector reads the encoder's reconstruction of the
				// frame, the pixels any decoder of the payload produces, in
				// place: the plane only reads it until Infer returns, and the
				// next encode, which rewrites it, comes after that.
				set, err := inferC.Infer(ctx, s.enc.Recon())
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
		// Hand the frame's events off before pulling the next frame. Each
		// emit is a buffered send that puts the goroutine it wakes (the
		// stream's consumer) in this P's runnext slot, and a goroutine that
		// never blocks leaves it there until an idle P steals it or sysmon
		// preempts this one after 10 ms: on a busy box that wait, not the
		// encode, would be the frame's latency, and on a stream other feeds
		// share, theirs too. So the loop yields here, and before an I-frame's
		// forward pass. See "Frame-boundary hand-off" in DESIGN.md.
		runtime.Gosched()
	}
	if err := s.w.Close(); err != nil {
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

// emit runs the event tap and the owner's hook on one event, then
// publishes it, honouring cancellation so a stalled consumer cannot wedge
// the session. Once ctx is done (a hook that crashed the site cancels it)
// it publishes nothing, so the session stops before its next frame.
func (s *Session) emit(ctx context.Context, ev Event) bool {
	ev.Site, ev.Feed = s.cfg.own.site, s.cfg.name
	ev.Time = s.cfg.clock.Now()
	s.mu.Lock()
	ev.Seq = s.seq
	s.seq++
	s.mu.Unlock()
	if s.cfg.tap != nil {
		s.cfg.tap(ev)
	}
	if s.cfg.own.hook != nil {
		s.cfg.own.hook(ctx, ev, s.ship)
	}
	if ctx.Err() != nil {
		return false
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
	if err := s.w.Close(); err != nil {
		return false
	}
	s.finished = true
	return true
}

// abort finishes a hub feed that will never run (skipped by cancellation,
// or whose Run failed before it started) by reporting cause, which must
// not be nil, to the completion callback as its outcome. The callback runs
// on its own goroutine: it may be telling a remote client, who must not
// hold up the run that abandons the session. No-op if Run already started.
func (s *Session) abort(cause error) {
	s.mu.Lock()
	if s.ran {
		s.mu.Unlock()
		return
	}
	s.ran = true
	s.err = cause
	s.mu.Unlock()
	if s.cfg.onDone != nil {
		go s.cfg.onDone(cause)
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
