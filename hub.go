package sieve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"sieve/internal/infer"
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
// feed routes its I-frame detections through it, so up to batchSize frames
// from concurrent feeds share a single YOLite forward pass. Results are
// byte-identical to per-feed WithDetector (the batched forward is
// element-identical per frame); only the amortisation changes — see
// HubStats.Inference. The plane is the hub's, so no feed opts out of it;
// combining it with a per-feed WithDetector is a configuration error
// surfaced by Add.
//
// A batch forms from the I-frames that queue while the previous forward
// runs, so no feed's detection waits for a sibling: a feed that goes quiet
// (a paced replay between I-frames, a stalled push producer) holds nobody
// back. How many frames share a pass depends on scheduling.
func WithHubInference(det *Detector, batchSize int) HubOption {
	return func(h *Hub) { h.inferDet, h.inferBatch = det, batchSize }
}

// WithHubTrace records every feed's per-frame pipeline spans (pull, encode,
// filter, infer) into t. A nil tracer disables tracing.
func WithHubTrace(t *Tracer) HubOption {
	return func(h *Hub) { h.own.tracer = t }
}

// withHubOwner makes the hub one edge site of a cluster: its feeds and
// its plane take the cluster's registry, tracer and stream, the site's
// label and the site's hook. Threaded by Cluster when it builds its
// per-site hubs.
func withHubOwner(o owner) HubOption {
	return func(h *Hub) { h.own = o }
}

// withSplit partitions the hub's plane across its cluster site's uplink
// (WithSplitInference). Threaded by Cluster when it builds its per-site
// hubs.
func withSplit(sp siteSplit) HubOption {
	return func(h *Hub) { h.split = &sp }
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

// HubStats aggregates a snapshot across feeds.
type HubStats struct {
	// Feeds lists per-feed stats in Add order, then any feeds the hub
	// adopted from a crashed cluster site.
	Feeds []SessionStats
	// Counts are the cross-feed totals.
	Counts
	// Inference holds the shared plane's batching counters (zero unless the
	// hub, or its cluster, was built with a shared plane). The plane serves
	// every feed, adopted ones too, so Inference.Frames equals Detections.
	Inference InferenceStats
	// Ingest holds the network ingest plane's counters (zero unless the
	// hub was built with WithListener).
	Ingest IngestStats
}

// Hub multiplexes N concurrent sessions over the internal worker pool with
// per-feed isolation: one feed's failure cancels only that feed, the others
// run to completion, and Run returns the joined per-feed errors. Every feed
// publishes its events straight onto the hub's one channel, each tagged
// with its feed name.
//
// Usage: Add feeds, consume Events concurrently, call Run, then Snapshot.
type Hub struct {
	pool       *runner.Pool
	inferDet   *Detector       // WithHubInference's detector, nil = none
	inferBatch int             // WithHubInference's flush size
	split      *siteSplit      // withSplit's partition, nil = all-edge
	ingest     *IngestListener // network ingest plane, nil = in-process only
	own        owner           // what every feed inherits (the cluster's for a site hub)
	events     chan Event      // the stream the hub made and Run closes, nil for a site hub

	mu      sync.Mutex
	feeds   []*Session
	adopted []*Session // see adopt: folded into Snapshot only
	started bool
}

// NewHub returns an empty hub.
func NewHub(opts ...HubOption) *Hub {
	h := &Hub{pool: runner.New(0)}
	for _, opt := range opts {
		opt(h)
	}
	if h.own.reg == nil {
		h.own.reg = telemetry.NewRegistry()
	}
	if h.inferDet != nil {
		h.own.plane = newPlane(h.inferDet, h.inferBatch, h.split, h.own.reg, h.own.site)
	}
	if h.own.events == nil {
		h.events = make(chan Event, eventBuffer)
		h.own.events = h.events
	}
	return h
}

// newPlane builds an inference plane over det, flushing batches of up to
// batchSize frames, with its counters in reg: a hub's shared plane, a
// cluster site's (labelled {site}, split across the site's uplink when
// split is non-nil), or a bare session's private batch-of-1 plane.
func newPlane(det *Detector, batchSize int, split *siteSplit, reg *telemetry.Registry, site string) *infer.Plane {
	var lbls []telemetry.Label
	if site != "" {
		lbls = append(lbls, telemetry.L("site", site))
	}
	if split == nil {
		return infer.New(det, batchSize, reg, lbls...)
	}
	return infer.NewSplit(det, batchSize, split.hooks(det.Network()), reg, lbls...)
}

// Telemetry returns the hub's metrics registry: the feeds', the inference
// plane's and the ingest listener's series (a site hub's registry is its
// cluster's).
func (h *Hub) Telemetry() *Registry { return h.own.reg }

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
		if f.Name() == name {
			return nil, fmt.Errorf("sieve: hub: duplicate feed %q", name)
		}
	}
	opts = append(opts[:len(opts):len(opts)], withOwner(h.own), WithName(name))
	sess, err := NewSession(src, opts...)
	if err != nil {
		return nil, err
	}
	h.feeds = append(h.feeds, sess)
	return sess, nil
}

// adopt builds the session of a feed that failed over to this site hub:
// it runs on the hub's plane, runs the site's hook, publishes onto the
// cluster's stream and folds into Snapshot, but is not traced (failover
// replay is recovery, and tracing it would make fault-plan traces depend
// on migration scheduling). The caller runs it; Run and abandon
// never see it, so a hub that finishes first cannot abort it unstarted.
func (h *Hub) adopt(src FrameSource, opts ...SessionOption) (*Session, error) {
	own := h.own
	own.tracer = nil
	sess, err := NewSession(src, append(opts[:len(opts):len(opts)], withOwner(own))...)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.adopted = append(h.adopted, sess)
	h.mu.Unlock()
	return sess, nil
}

// Events returns the stream every feed publishes onto, closed when Run
// returns — also when Run fails before any feed runs, so no reader hangs
// on it. A cluster site's hub has no stream of its own: its feeds publish
// onto the cluster's (Cluster.Events), which the cluster closes.
func (h *Hub) Events() <-chan Event { return h.own.events }

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
	if h.events != nil {
		defer close(h.events)
	}
	// The feed set freezes once the admission window, if any, closes.
	ended, err := h.ingest.admit(ctx, hubIngestTarget{h}, &h.mu, &h.started)
	feeds := slices.Clone(h.feeds)
	h.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("sieve: hub: %w", err)
		h.abandon(err)
		return err
	}
	defer ended()
	if len(feeds) == 0 {
		return fmt.Errorf("sieve: hub: %w", ErrNoFeeds)
	}

	// Feed errors travel as values, each recorded by its session, so the
	// pool's first-error cancellation never couples one feed's failure to
	// its siblings (a failing session simply returns; its source and
	// goroutines are its own to unwind).
	_, mapErr := runner.Map(ctx, h.pool, len(feeds), func(ctx context.Context, i int) (struct{}, error) {
		_ = feeds[i].Run(ctx)
		return struct{}{}, nil
	})
	// Feeds the pool never started (parent cancellation) are finished
	// with the cancellation as their error.
	h.abandon(ctx.Err())

	errs := []error{mapErr}
	for _, f := range feeds {
		if err := f.outcome(); err != nil {
			errs = append(errs, fmt.Errorf("feed %s: %w", f.Name(), err))
		}
	}
	return errors.Join(errs...)
}

// abandon finishes every feed whose session has not run with cause: the
// session is aborted — a wire feed's client is told cause and its stream
// is not archived — and the feed's Err is cause.
func (h *Hub) abandon(cause error) {
	h.mu.Lock()
	feeds := slices.Clone(h.feeds)
	h.mu.Unlock()
	for _, f := range feeds {
		f.abort(cause)
	}
}

// Snapshot reports per-feed and aggregate counters; safe to call while Run
// is in flight.
func (h *Hub) Snapshot() HubStats {
	h.mu.Lock()
	feeds := slices.Concat(h.feeds, h.adopted)
	h.mu.Unlock()
	st := HubStats{Feeds: make([]SessionStats, 0, len(feeds))}
	if h.own.plane != nil {
		st.Inference = h.own.plane.Stats()
	}
	if h.ingest != nil {
		st.Ingest = h.ingest.Stats()
	}
	for _, f := range feeds {
		fs := f.Stats()
		st.Feeds = append(st.Feeds, fs)
		st.Counts.Add(fs.Counts)
	}
	return st
}
