package sieve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sieve/internal/runner"
	"sieve/internal/telemetry"
)

// Lifecycle errors shared by Hub and Cluster. They are wrapped with
// context (which hub/cluster, which feed), so match with errors.Is.
var (
	// ErrStarted is returned by Hub.Add and Cluster.AddFeed once Run has
	// been called: the feed set is frozen at Run.
	ErrStarted = errors.New("feeds cannot be added after Run has started")
	// ErrNoFeeds is returned by Run on a hub or cluster with no feeds —
	// running an empty topology is almost always a wiring bug, so it is an
	// error, not a silent no-op.
	ErrNoFeeds = errors.New("no feeds")
	// ErrAlreadyRun is returned by a second Run call: hubs and clusters are
	// single-shot (their sessions cannot be rewound).
	ErrAlreadyRun = errors.New("Run already called")
)

// HubOption configures a Hub.
type HubOption func(*Hub)

// WithWorkers bounds how many feeds run concurrently (default GOMAXPROCS).
func WithWorkers(n int) HubOption {
	return func(h *Hub) { h.pool = runner.New(n) }
}

// eventBuffer is the capacity of a hub's or cluster's merged event
// channel: enough that a consumer draining between frames never stalls the
// feeds, small enough that an abandoned channel holds little.
const eventBuffer = 256

// WithHubInference gives the hub one shared batched-inference plane: every
// feed added afterwards routes its I-frame detections through it, so up to
// batchSize frames from concurrent feeds share a single YOLite forward
// pass. Results are byte-identical to per-feed WithDetector (the batched
// forward is element-identical per frame); only the amortisation changes —
// see HubStats.Inference. A feed's own WithInferencePlane overrides the
// hub plane; combining the hub plane with per-feed WithDetector is a
// configuration error surfaced by Add.
//
// Flushes are count-based, never timed, so a feed that goes quiet while
// still running (a wall-clock-paced replay between I-frames, a stalled
// push producer) holds partial batches open and siblings' detections wait
// on its cadence. Batching suits throughput-oriented replay and bounded
// feeds; for latency-sensitive live sources keep batchSize 1.
func WithHubInference(det *Detector, batchSize int) HubOption {
	return func(h *Hub) { h.plane = NewInferencePlane(det, batchSize) }
}

// withHubPlane shares an existing plane; Cluster hands each site hub the
// plane it built (and, for split inference, hooked to the site uplink).
// See WithHubInference.
func withHubPlane(p *InferencePlane) HubOption {
	return func(h *Hub) { h.plane = p }
}

// WithHubTelemetry shares one metrics registry across the hub: every feed
// added afterwards records its per-feed series into reg (see
// WithTelemetry), and the hub's inference and ingest planes register their
// counters there too. Without it the hub owns a private registry, exposed
// by Telemetry() — the stats structs are views over the registry either
// way.
func WithHubTelemetry(reg *Registry) HubOption {
	return func(h *Hub) { h.reg = reg }
}

// WithHubTrace records every feed's pipeline spans into t (see
// WithTracer). A nil tracer disables tracing.
func WithHubTrace(t *Tracer) HubOption {
	return func(h *Hub) { h.tracer = t }
}

// withHubSite names the edge site this hub embodies: feed series gain a
// {site} label and spans render under the site's process in the exported
// trace. Threaded by Cluster when it builds its per-site hubs.
func withHubSite(name string) HubOption {
	return func(h *Hub) { h.site = name }
}

// WithListener attaches a network ingest plane: Run first opens the
// listener's admission window, accepting wire feeds (each HELLO becomes
// a hub feed fed by its connection) until the expected count is reached,
// then freezes the feed set and runs it as usual. Wire feeds may be
// mixed freely with feeds added in-process via Add. Disconnected wire
// feeds stay live awaiting a RESUME until the run completes. See
// IngestListener and PROTOCOL.md.
func WithListener(l *IngestListener) HubOption {
	return func(h *Hub) { h.ingest = l }
}

// FeedStats is one feed's counters plus its terminal error, if any.
type FeedStats struct {
	SessionStats
	// Err is the feed's terminal error message ("" while running or on
	// success).
	Err string
}

// HubStats aggregates a snapshot across feeds.
type HubStats struct {
	// Feeds lists per-feed stats in Add order.
	Feeds []FeedStats
	// Frames/IFrames/Detections/PayloadBytes are the cross-feed totals.
	Frames       int
	IFrames      int
	Detections   int
	PayloadBytes int64
	// Inference holds the shared plane's batching counters (zero unless the
	// hub was built with WithHubInference).
	Inference InferenceStats
	// Ingest holds the network ingest plane's counters (zero unless the
	// hub was built with WithListener).
	Ingest IngestStats
}

// FilterRate is the aggregate share of frames dropped across all feeds.
func (st HubStats) FilterRate() float64 {
	if st.Frames == 0 {
		return 0
	}
	return 1 - float64(st.IFrames)/float64(st.Frames)
}

// Hub multiplexes N concurrent sessions over the internal worker pool with
// per-feed isolation: one feed's failure cancels only that feed, the others
// run to completion, and Run returns the joined per-feed errors. Events from
// all feeds are merged onto one channel, each tagged with its feed name.
//
// Usage: Add feeds, consume Events concurrently, call Run, then Snapshot.
type Hub struct {
	pool   *runner.Pool
	plane  *InferencePlane     // shared inference plane, nil = per-feed config
	ingest *IngestListener     // network ingest plane, nil = in-process only
	reg    *telemetry.Registry // shared metrics registry (private by default)
	tracer *telemetry.Tracer   // span recorder, nil = tracing off
	site   string              // owning site label, "" for a plain hub

	mu      sync.Mutex
	feeds   []*hubFeed
	started bool
	events  chan Event
}

type hubFeed struct {
	name string
	sess *Session
	err  error
	done bool
}

// NewHub returns an empty hub.
func NewHub(opts ...HubOption) *Hub {
	h := &Hub{pool: runner.New(0)}
	for _, opt := range opts {
		opt(h)
	}
	if h.reg == nil {
		h.reg = telemetry.NewRegistry()
	}
	// Bind the shared planes' counters into the hub registry now, before
	// any traffic: construction-time registration is the zero-alloc
	// recording contract, and the planes' accumulated counts are still
	// zero, so rebinding transfers nothing.
	if h.plane != nil {
		h.plane.p.Instrument(h.reg, siteSeriesLabels(h.site)...)
	}
	h.ingest.instrument(h.reg)
	h.events = make(chan Event, eventBuffer)
	return h
}

// siteSeriesLabels is the {site} label set for site-scoped planes (empty
// for a plain hub, whose series carry no site dimension).
func siteSeriesLabels(site string) []MetricLabel {
	if site == "" {
		return nil
	}
	return []MetricLabel{telemetry.L("site", site)}
}

// Telemetry returns the hub's metrics registry (the one shared via
// WithHubTelemetry, or the hub's private default).
func (h *Hub) Telemetry() *Registry { return h.reg }

// Add registers a feed: a named session over src, configured like any
// Session (the name overrides WithName). Feeds cannot be added once Run has
// started: Add then returns an error wrapping ErrStarted.
func (h *Hub) Add(name string, src FrameSource, opts ...SessionOption) (*Session, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.started {
		return nil, fmt.Errorf("sieve: hub: add feed %q: %w", name, ErrStarted)
	}
	for _, f := range h.feeds {
		if f.name == name {
			return nil, fmt.Errorf("sieve: hub: duplicate feed %q", name)
		}
	}
	// Prepended so a feed's own inference and telemetry options still win.
	shared := []SessionOption{WithTelemetry(h.reg), WithTracer(h.tracer), withTraceSite(h.site)}
	if h.plane != nil {
		shared = append(shared, WithInferencePlane(h.plane))
	}
	opts = append(shared, opts...)
	opts = append(opts[:len(opts):len(opts)], WithName(name))
	sess, err := NewSession(src, opts...)
	if err != nil {
		return nil, err
	}
	h.feeds = append(h.feeds, &hubFeed{name: name, sess: sess})
	return sess, nil
}

// Events returns the merged event stream, closed when Run returns.
func (h *Hub) Events() <-chan Event { return h.events }

// Run executes every feed's session over the worker pool and blocks until
// all complete. A feed error cancels that feed only; Run returns the joined
// feed errors (nil when every feed succeeded). Cancelling ctx stops all
// feeds. Run may be called once: a second call returns an error wrapping
// ErrAlreadyRun, and a Run with no feeds returns one wrapping ErrNoFeeds
// (closing Events either way, so consumers never hang).
func (h *Hub) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	h.mu.Lock()
	if h.started {
		h.mu.Unlock()
		return fmt.Errorf("sieve: hub: %w", ErrAlreadyRun)
	}
	// The feed set freezes once the admission window, if any, closes.
	ended, err := h.ingest.admit(ctx, hubIngestTarget{h}, &h.mu, &h.started)
	feeds := append([]*hubFeed(nil), h.feeds...)
	h.mu.Unlock()
	if err != nil {
		close(h.events)
		return fmt.Errorf("sieve: hub: %w", err)
	}
	defer ended()
	if len(feeds) == 0 {
		close(h.events)
		return fmt.Errorf("sieve: hub: %w", ErrNoFeeds)
	}

	// Cold-start batching: promise the plane the registrations that are
	// guaranteed imminent, so the first I-frames coalesce instead of
	// flushing one by one while sibling feeds are still spinning up. The
	// pool starts exactly the first Workers() feeds immediately, and a
	// session registers on Run entry before it can block — so only
	// plane-bound feeds inside that window may be counted. A feed beyond
	// the window (or one that overrode the hub plane) must not be: its
	// registration could wait on a worker held by a long or unbounded
	// sibling, and an unconsumed reservation would hold batches open
	// forever.
	if h.plane != nil {
		h.plane.p.Reserve(planeReservation(feeds, h.plane, h.pool.Workers()))
	}

	// Forward each session's events onto the merged channel.
	var fwd sync.WaitGroup
	for _, f := range feeds {
		fwd.Add(1)
		go func(f *hubFeed) {
			defer fwd.Done()
			for ev := range f.sess.Events() {
				select {
				case h.events <- ev:
				case <-ctx.Done():
					// Sessions unblock themselves on cancellation; just
					// drain so their channels can close.
					for range f.sess.Events() {
					}
					return
				}
			}
		}(f)
	}

	// Feed errors travel as values so the pool's first-error cancellation
	// never couples one feed's failure to its siblings (a failing session
	// simply returns; its source and goroutines are its own to unwind).
	_, mapErr := runner.Map(ctx, h.pool, len(feeds), func(ctx context.Context, i int) (struct{}, error) {
		err := feeds[i].sess.Run(ctx)
		h.mu.Lock()
		feeds[i].err = err
		feeds[i].done = true
		h.mu.Unlock()
		return struct{}{}, nil
	})
	// Feeds the pool never started (parent cancellation) still must close
	// their event channels so the forwarders terminate.
	for _, f := range feeds {
		h.mu.Lock()
		done := f.done
		h.mu.Unlock()
		if !done {
			f.sess.abort()
			h.mu.Lock()
			f.err = ctx.Err()
			f.done = true
			h.mu.Unlock()
		}
	}
	fwd.Wait()
	close(h.events)

	errs := []error{mapErr}
	for _, f := range feeds {
		if f.err != nil {
			errs = append(errs, fmt.Errorf("feed %s: %w", f.name, f.err))
		}
	}
	return errors.Join(errs...)
}

// planeReservation counts the feeds bound to plane among the first window
// entries — the feeds the pool starts immediately (runner.Map hands out
// indexes in order), each of which registers on Run entry before it can
// block. Reservations must never exceed that guaranteed-imminent set: a
// plane feed beyond the window waits for a worker that a long or unbounded
// sibling may hold indefinitely, and a reservation nobody consumes would
// hold every partial batch open forever.
func planeReservation(feeds []*hubFeed, plane *InferencePlane, window int) int {
	using := 0
	for _, f := range feeds {
		if window <= 0 {
			break
		}
		window--
		if f.sess.cfg.plane == plane {
			using++
		}
	}
	return using
}

// Snapshot reports per-feed and aggregate counters; safe to call while Run
// is in flight.
func (h *Hub) Snapshot() HubStats {
	h.mu.Lock()
	feeds := append([]*hubFeed(nil), h.feeds...)
	h.mu.Unlock()
	st := HubStats{Feeds: make([]FeedStats, 0, len(feeds))}
	if h.plane != nil {
		st.Inference = h.plane.Stats()
	}
	if h.ingest != nil {
		st.Ingest = h.ingest.Stats()
	}
	for _, f := range feeds {
		fs := FeedStats{SessionStats: f.sess.Stats()}
		h.mu.Lock()
		if f.err != nil {
			fs.Err = f.err.Error()
		}
		h.mu.Unlock()
		st.Feeds = append(st.Feeds, fs)
		st.Frames += fs.Frames
		st.IFrames += fs.IFrames
		st.Detections += fs.Detections
		st.PayloadBytes += fs.PayloadBytes
	}
	return st
}
