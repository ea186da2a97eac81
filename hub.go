package sieve

import (
	"context"
	"errors"
	"fmt"
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

// withHubOwner makes the hub one edge site of a cluster: its feeds
// register in the cluster's registry under the site's label, trace into
// the cluster's tracer, and batch through the site's plane. Threaded by
// Cluster when it builds its per-site hubs.
func withHubOwner(o owner) HubOption {
	return func(h *Hub) { h.own = o }
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
	pool       *runner.Pool
	inferDet   *Detector       // WithHubInference's detector, nil = none
	inferBatch int             // WithHubInference's flush size
	ingest     *IngestListener // network ingest plane, nil = in-process only
	own        owner           // what every feed inherits (the cluster's for a site hub)

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
	if h.own.reg == nil {
		h.own.reg = telemetry.NewRegistry()
	}
	if h.inferDet != nil {
		h.own.plane = infer.New(h.inferDet, h.inferBatch, h.own.reg)
	}
	h.events = make(chan Event, eventBuffer)
	return h
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
		if f.name == name {
			return nil, fmt.Errorf("sieve: hub: duplicate feed %q", name)
		}
	}
	opts = append(opts[:len(opts):len(opts)], withOwner(h.own), WithName(name))
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
		err = fmt.Errorf("sieve: hub: %w", err)
		h.abandon(err)
		close(h.events)
		return err
	}
	defer ended()
	if len(feeds) == 0 {
		close(h.events)
		return fmt.Errorf("sieve: hub: %w", ErrNoFeeds)
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
	h.abandon(ctx.Err())
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

// abandon finishes every feed whose session has not run with cause: the
// session is aborted — its events close, and a wire feed's client is told
// cause and its stream is not archived — and the feed's Err is cause.
func (h *Hub) abandon(cause error) {
	h.mu.Lock()
	feeds := append([]*hubFeed(nil), h.feeds...)
	h.mu.Unlock()
	for _, f := range feeds {
		h.mu.Lock()
		done := f.done
		h.mu.Unlock()
		if !done {
			f.sess.abort(cause)
			h.mu.Lock()
			f.err = cause
			f.done = true
			h.mu.Unlock()
		}
	}
}

// Snapshot reports per-feed and aggregate counters; safe to call while Run
// is in flight.
func (h *Hub) Snapshot() HubStats {
	h.mu.Lock()
	feeds := append([]*hubFeed(nil), h.feeds...)
	h.mu.Unlock()
	st := HubStats{Feeds: make([]FeedStats, 0, len(feeds))}
	if h.own.plane != nil {
		st.Inference = h.own.plane.Stats()
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
