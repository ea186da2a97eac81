package sieve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sieve/internal/cluster"
	"sieve/internal/container"
	"sieve/internal/faultplan"
	"sieve/internal/infer"
	"sieve/internal/labels"
	"sieve/internal/nn"
	"sieve/internal/retry"
	"sieve/internal/simnet"
	"sieve/internal/store"
	"sieve/internal/telemetry"
)

// Re-exported storage and sharding types (same alias pattern as sieve.go:
// the public names are stable while the internal packages evolve).
type (
	// ResultsDB is the results database mapping (camera, frame) to detected
	// labels — per-site shards and the cluster's merged global view.
	ResultsDB = store.ResultsDB
	// MergeConflictError is returned when two shards disagree on a frame.
	MergeConflictError = store.MergeConflictError
	// EdgeStoreDB retains encoded streams per camera with quota accounting.
	EdgeStoreDB = store.EdgeStore
	// LabelTrack is a per-frame label assignment (Track results).
	LabelTrack = labels.Track
	// Sharder places feeds onto edge sites (see ShardByHash and friends).
	Sharder = cluster.Sharder
	// SiteLoad is the per-site state a Sharder sees at assignment time.
	SiteLoad = cluster.SiteLoad
	// FaultPlan is a deterministic fault-injection script for a cluster run:
	// site crashes and recoveries, uplink partitions and degradations, load
	// skew — each anchored to a frame-count trigger on a named feed, so the
	// same plan fires at the same points in every run. Build with
	// ParseFaultPlan and attach with WithFaultPlan.
	FaultPlan = faultplan.Plan
	// DegradedSite marks a site whose contribution to the merged view is
	// incomplete or stale (it crashed, or its uplink stayed partitioned) —
	// the explicit alternative to silently short counts.
	DegradedSite = cluster.DegradedSite
)

// ParseFaultPlan parses the fault-script grammar
// kind:site:feed@frame[:factor], semicolon-separated — e.g.
// "crash:site1:cam-north@5;recover:site1:cam-north@9". Kinds: crash,
// recover, linkdown, linkup, degrade (uplink bandwidth divided by factor),
// skew (site load multiplied by factor in failover placement).
func ParseFaultPlan(script string) (*FaultPlan, error) { return faultplan.Parse(script) }

// NewResultsDB returns an empty results database.
func NewResultsDB() *ResultsDB { return store.NewResultsDB() }

// LoadResultsDB reads a database written by ResultsDB.Save.
func LoadResultsDB(path string) (*ResultsDB, error) { return store.LoadResultsDB(path) }

// ShardByHash places each feed by a stable hash of its name (the default:
// a camera always lands on the same site for a given cluster size).
func ShardByHash() Sharder { return cluster.StaticHash{} }

// ShardRoundRobin cycles feeds across sites in AddFeed order.
func ShardRoundRobin() Sharder { return &cluster.RoundRobin{} }

// ShardLeastBusy places each feed on the site with the fewest expected
// frames (ties: fewest feeds, then lowest site index).
func ShardLeastBusy() Sharder { return cluster.LeastBusy{} }

// SharderByName resolves a CLI name ("hash", "roundrobin", "leastbusy")
// to a sharding policy.
func SharderByName(name string) (Sharder, error) { return cluster.ByName(name) }

// ClusterOption configures a Cluster.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	sharder      Sharder
	siteWorkers  int
	uplinkBps    float64
	latency      time.Duration
	quota        int64
	inferDet     *Detector
	inferBatch   int
	split        bool
	splitCut     int
	ingest       *IngestListener
	faults       *FaultPlan
	syncEvery    int
	syncAttempts int
	reg          *telemetry.Registry
	tracer       *telemetry.Tracer
}

// WithClusterTelemetry shares one metrics registry across the whole cluster:
// every site hub, session, inference plane and the fault/sync planes register
// their series (labelled by site and feed) in reg instead of private
// registries, so a single Prometheus scrape or Snapshot covers the
// deployment. Telemetry never alters results — the merged ResultsDB is
// byte-identical with or without it.
func WithClusterTelemetry(reg *Registry) ClusterOption {
	return func(c *clusterConfig) { c.reg = reg }
}

// WithClusterTrace attaches a frame-anchored tracer: every session stage
// (pull/encode/filter/infer) plus the cluster's ship and merge work record
// spans keyed by (site, feed, frame) against the tracer's clock. Export with
// Tracer.WriteChrome. Under VirtualClocks the trace is byte-identical run to
// run, including scripted-fault runs (a crashed site's buffered spans drop,
// exactly as a real crash loses unflushed trace buffers).
func WithClusterTrace(t *Tracer) ClusterOption {
	return func(c *clusterConfig) { c.tracer = t }
}

// WithSharder selects the feed-placement policy (default ShardByHash).
func WithSharder(s Sharder) ClusterOption {
	return func(c *clusterConfig) { c.sharder = s }
}

// WithSiteWorkers bounds each site's runner pool: how many of the site's
// feeds encode concurrently (default GOMAXPROCS, like Hub).
func WithSiteWorkers(n int) ClusterOption {
	return func(c *clusterConfig) { c.siteWorkers = n }
}

// WithUplink configures every site's edge→cloud link (defaults: the
// paper's 30 Mbps / 20 ms WAN). Transfers are virtual — accounted, never
// slept on.
func WithUplink(bandwidthBps float64, latency time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.uplinkBps, c.latency = bandwidthBps, latency }
}

// WithEdgeQuota bounds each site's edge store in bytes (0 = unlimited).
// A completed feed whose stream does not fit surfaces ErrQuotaExceeded
// from that site.
func WithEdgeQuota(bytes int64) ClusterOption {
	return func(c *clusterConfig) { c.quota = bytes }
}

// WithClusterInference gives every edge site its own shared
// batched-inference plane over det: all feeds placed on a site micro-batch
// their I-frames through that site's plane (one YOLite forward pass per
// batch of up to batchSize frames), instead of each feed configuring
// WithDetector and paying an un-amortised forward per frame. One plane per
// site — not one per cluster — because the plane serialises its forward
// passes and sites are the unit of horizontal scale-out. Results are
// byte-identical to the per-feed path; see ClusterStats.Inference for the
// amortisation counters.
func WithClusterInference(det *Detector, batchSize int) ClusterOption {
	return func(c *clusterConfig) { c.inferDet, c.inferBatch = det, batchSize }
}

// SplitAuto asks WithSplitInference to pick each site's cut point from the
// detector's layer profile and the site's observed uplink bandwidth
// (Neurosurgeon-style, see nn.Partition), re-evaluating whenever the
// bottleneck moves — a degraded uplink pushes layers back to the edge, a
// healed one pulls them to the cloud.
const SplitAuto = -1

// splitReturnWireBytes is the modelled cloud→edge record closing a split
// batch's round trip — the class grid's detections coming back per frame.
// It is charged to every cut that runs at least one layer in the cloud, so
// the auto chooser never picks a cloud-heavy cut on savings smaller than
// the return trip.
const splitReturnWireBytes = 64

// splitEdgeFLOPS and splitCloudFLOPS are the modelled sustained compute
// rates (FLOP/s) behind SplitAuto's cut choice and the split telemetry:
// the paper's 1 GFLOP/s edge desktop and 3 GFLOP/s cloud Xeon.
const (
	splitEdgeFLOPS  = 1e9
	splitCloudFLOPS = 3e9
)

// WithSplitInference is WithClusterInference with the forward pass itself
// partitioned across the uplink: each site's plane runs layers [0,cut) on
// the edge, ships the intermediate activation over the site's metered
// uplink (so linkdown/degrade faults apply to activations exactly like
// detections and deltas), and finishes layers [cut,N) in the cloud. cut is
// a fixed layer index for every site, or SplitAuto to tune each site's cut
// from its own observed bandwidth. cut >= the network depth degrades to the
// all-edge WithClusterInference path; a partitioned uplink makes affected
// batches fall back to edge recompute. Results are byte-identical to the
// all-edge path at every cut under every fault — the split moves compute
// and bytes, never detections. See ClusterStats.Split.
func WithSplitInference(det *Detector, batchSize, cut int) ClusterOption {
	return func(c *clusterConfig) {
		c.inferDet, c.inferBatch = det, batchSize
		c.split, c.splitCut = true, cut
	}
}

// WithClusterListener attaches a network ingest plane to the cluster: Run
// first opens the listener's admission window, accepting wire feeds (each
// HELLO goes through AddFeed, so the sharder places it like any camera)
// until the expected count is reached, then freezes the feed set and runs
// it as usual. Wire feeds mix freely with feeds added in-process via
// AddFeed, and their encoded streams are archived in the owning site's
// EdgeStore exactly like in-process feeds. Disconnected wire feeds stay
// live awaiting a RESUME until the run completes. See IngestListener and
// PROTOCOL.md.
func WithClusterListener(l *IngestListener) ClusterOption {
	return func(c *clusterConfig) { c.ingest = l }
}

// WithFaultPlan scripts deterministic fault injection into the run: the
// plan's events fire as feeds hit their trigger frame counts. A crashed
// site's uplink drops and its sessions stop; once the cloud's
// missed-heartbeat counter confirms the death, the site's feeds are
// re-sharded over the surviving sites and each resumes at an I-frame
// boundary, replaying its tail from the dead site's EdgeStore, so the
// merged view still converges on the fault-free result. See FaultPlan.
func WithFaultPlan(p *FaultPlan) ClusterOption {
	return func(c *clusterConfig) { c.faults = p }
}

// WithDeltaSync tunes the streaming shard replication: every `every`
// detections a site ships an incremental ResultsDB delta to the cloud
// (making the global view queryable mid-run via Cluster.View), retrying a
// failed ship up to `attempts` times on the deterministic exponential
// backoff schedule before marking the site degraded. Defaults: every 8,
// 4 attempts.
func WithDeltaSync(every, attempts int) ClusterOption {
	return func(c *clusterConfig) {
		if every > 0 {
			c.syncEvery = every
		}
		if attempts > 0 {
			c.syncAttempts = attempts
		}
	}
}

// ErrQuotaExceeded reports an edge store that cannot fit a stream.
var ErrQuotaExceeded = store.ErrQuotaExceeded

// clusterFeed is one camera pinned to a site: its session plus the sink
// buffer the encoded stream lands in (archived to the site's EdgeStore
// after a successful run).
type clusterFeed struct {
	name string
	sess *Session
	sink *container.Buffer
	// src and opts are kept for failover: a migrated feed re-runs as a
	// fresh Session over the original (re-seeked) source — or over an
	// EdgeStore replay of its salvaged tail when the source is unseekable —
	// with the same options.
	src  FrameSource
	opts []SessionOption
}

// clusterSite is one edge site: a Hub with its own bounded pool, a
// ResultsDB shard, and an EdgeStore for the encoded streams.
type clusterSite struct {
	name   string
	hub    *Hub
	shard  *ResultsDB
	edge   *EdgeStoreDB
	feeds  []*clusterFeed
	frames int // expected frames of bounded feeds (sharder load input)
	err    error
	// Failover state (guarded by Cluster.mu). crashed: the site is down
	// right now; failover: it crashed at some point, so its feeds need
	// migration when its goroutine exits; recovered: a later SiteRecover
	// healed its uplink and put it back in the load table; submitted: its
	// final report reached the cloud.
	crashed   bool
	failover  bool
	recovered bool
	submitted bool
	cancel    context.CancelFunc
}

// Cluster is the multi-site deployment of Figure 1: N camera feeds sharded
// across K edge sites, each site a Hub with its own worker pool, ResultsDB
// shard and EdgeStore, shipping I-frame detections and stats to a simulated
// cloud over per-site metered uplinks. After Run, the cloud coordinator has
// merged the shards into one conflict-checked global view serving
// cross-camera Query/Track calls.
//
// Determinism contract: with per-feed VirtualClocks and deterministic
// sources, the merged ResultsDB is byte-identical (ResultsDB.Save) run to
// run and identical to running the same feeds through one flat Hub —
// sharding changes where work happens, never what is computed.
//
// Usage mirrors Hub: AddFeed cameras, consume Events concurrently, Run,
// then Snapshot / Merged / Query.
type Cluster struct {
	cfg     clusterConfig
	sharder Sharder
	topo    *cluster.Topology
	coord   *cluster.Coordinator
	ingest  *IngestListener // network ingest plane, nil = in-process only
	frunner *faultplan.Runner
	// syncClock paces delta-sync retry backoff. It is a VirtualClock — like
	// the simnet links, retry time is simulated, so a partitioned site
	// exhausts its schedule instantly and deterministically instead of
	// stalling the run.
	syncClock Clock

	// splitPlanes holds each site's split-inference plane when the cluster
	// was built with WithSplitInference (the Hub only sees an
	// InferencePlane; the split view lives here for Snapshot).
	splitPlanes map[string]*InferencePlane

	mu        sync.Mutex
	sites     []*clusterSite
	started   bool
	merged    *ResultsDB
	events    chan Event
	skew      map[string]float64 // LoadSkew factors by site (failover placement)
	failovers []Failover
	fstats    failoverCounters
}

// failoverCounters aggregates the fault and sync planes' activity. The
// fields are telemetry counters registered as sieve_cluster_* series in
// NewCluster, so the fault plane's behaviour shows up in a Prometheus
// scrape alongside the frame counters; ClusterStats reads them as a view.
type failoverCounters struct {
	crashes    *telemetry.Counter
	recoveries *telemetry.Counter
	migrated   *telemetry.Counter
	lost       *telemetry.Counter
	replayed   *telemetry.Counter
	deltaSyncs *telemetry.Counter
	retries    *telemetry.Counter
}

// newFailoverCounters registers the cluster-level fault/sync series in reg.
func newFailoverCounters(reg *telemetry.Registry) failoverCounters {
	reg.Describe("sieve_cluster_crashes_total", "scripted site crashes fired")
	reg.Describe("sieve_cluster_recoveries_total", "crashed sites whose uplink recovered")
	reg.Describe("sieve_cluster_migrated_feeds_total", "feeds adopted by surviving sites after a crash")
	reg.Describe("sieve_cluster_lost_feeds_total", "feeds no surviving site could adopt")
	reg.Describe("sieve_cluster_replayed_frames_total", "frames re-encoded by adoptive sites during failover")
	reg.Describe("sieve_cluster_delta_syncs_total", "streaming shard-sync delta flushes")
	reg.Describe("sieve_cluster_sync_retries_total", "extra delta-sync attempts spent on partitioned uplinks")
	return failoverCounters{
		crashes:    reg.Counter("sieve_cluster_crashes_total"),
		recoveries: reg.Counter("sieve_cluster_recoveries_total"),
		migrated:   reg.Counter("sieve_cluster_migrated_feeds_total"),
		lost:       reg.Counter("sieve_cluster_lost_feeds_total"),
		replayed:   reg.Counter("sieve_cluster_replayed_frames_total"),
		deltaSyncs: reg.Counter("sieve_cluster_delta_syncs_total"),
		retries:    reg.Counter("sieve_cluster_sync_retries_total"),
	}
}

// Failover records one migrated feed: where it ran, where it resumed, and
// how many frames the adoptive site re-encoded from the replay point.
type Failover struct {
	// Feed is the migrated camera.
	Feed string
	// From is the crashed site; To the surviving site that adopted the feed.
	From, To string
	// ResumeFrame is the I-frame boundary the feed resumed at (original
	// frame numbering).
	ResumeFrame int
	// ReplayedFrames counts frames re-encoded on the adoptive site.
	ReplayedFrames int
}

// NewCluster builds a cluster of numSites edge sites named "site0"..,
// sharing one cloud coordinator.
func NewCluster(numSites int, opts ...ClusterOption) (*Cluster, error) {
	if numSites < 1 {
		return nil, fmt.Errorf("sieve: cluster: need at least one site, got %d", numSites)
	}
	cfg := clusterConfig{sharder: ShardByHash(), latency: -1, syncEvery: 8, syncAttempts: 4}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.reg == nil {
		cfg.reg = telemetry.NewRegistry()
	}
	names := make([]string, numSites)
	for i := range names {
		names[i] = fmt.Sprintf("site%d", i)
	}
	topo, err := cluster.NewStarTopology(names, cfg.uplinkBps, cfg.latency)
	if err != nil {
		return nil, fmt.Errorf("sieve: cluster: %w", err)
	}
	c := &Cluster{
		cfg:       cfg,
		sharder:   cfg.sharder,
		topo:      topo,
		coord:     cluster.NewCoordinator(topo),
		ingest:    cfg.ingest,
		frunner:   faultplan.NewRunner(cfg.faults),
		syncClock: NewVirtualClock(time.Unix(0, 0).UTC()),
		events:    make(chan Event, eventBuffer),
		skew:      make(map[string]float64),
	}
	c.splitPlanes = make(map[string]*InferencePlane)
	c.fstats = newFailoverCounters(cfg.reg)
	if c.ingest != nil {
		c.ingest.instrument(cfg.reg)
	}
	for _, name := range names {
		c.coord.Register(name)
	}
	cfg.reg.Describe("sieve_cluster_edge_store_bytes", "per-site edge store usage")
	cfg.reg.Describe("sieve_cluster_uplink_bytes", "per-site bytes shipped over the edge-to-cloud uplink")
	cfg.reg.Describe("sieve_cluster_degraded_sites", "sites whose slice of the merged view is incomplete or stale")
	for _, name := range names {
		hubOpts := []HubOption{
			WithWorkers(cfg.siteWorkers),
			WithHubTelemetry(cfg.reg), withHubSite(name), WithHubTrace(cfg.tracer),
		}
		if cfg.inferDet != nil {
			if cfg.split {
				ip := c.newSplitPlane(name)
				c.splitPlanes[name] = ip
				hubOpts = append(hubOpts, withHubPlane(ip))
			} else {
				hubOpts = append(hubOpts, WithHubInference(cfg.inferDet, cfg.inferBatch))
			}
		}
		s := &clusterSite{
			name:  name,
			hub:   NewHub(hubOpts...),
			shard: NewResultsDB(),
			edge:  store.NewEdgeStore(cfg.quota),
		}
		c.sites = append(c.sites, s)
		// Sampled gauges: storage and uplink accounting live in their own
		// planes, so a collect hook reads them at snapshot/scrape time
		// instead of threading counters through the store and simnet layers.
		stored := cfg.reg.Gauge("sieve_cluster_edge_store_bytes", telemetry.L("site", name))
		uplink := cfg.reg.Gauge("sieve_cluster_uplink_bytes", telemetry.L("site", name))
		cfg.reg.OnCollect(func() {
			stored.Set(s.edge.Used())
			if bytes, _, _, err := c.coord.UplinkStats(s.name); err == nil {
				uplink.Set(bytes)
			}
		})
	}
	degraded := cfg.reg.Gauge("sieve_cluster_degraded_sites")
	cfg.reg.OnCollect(func() { degraded.Set(int64(len(c.coord.Degraded()))) })
	return c, nil
}

// newSplitPlane builds one site's split-inference plane: the cut chooser
// bound to the site's uplink, the ship hook metering activations through
// the coordinator, and the modelled tier rates for the split telemetry.
func (c *Cluster) newSplitPlane(site string) *InferencePlane {
	det := c.cfg.inferDet
	net := det.Network()
	stats := net.Stats()
	numLayers := len(stats)
	link, _ := c.topo.Uplink(site)

	var chooser func() int
	if c.cfg.splitCut != SplitAuto {
		fixed := c.cfg.splitCut // the plane clamps to [0, numLayers]
		chooser = func() int { return fixed }
	} else {
		env := nn.Env{
			EdgeFLOPS:   splitEdgeFLOPS,
			CloudFLOPS:  splitCloudFLOPS,
			InputBytes:  net.Input.Bytes(),
			ReturnBytes: splitReturnWireBytes,
		}
		// The chooser re-evaluates the partition only when the observed
		// bandwidth moves — the layer profile is static, so the cut is a pure
		// function of the link state. Plain fields, no lock: Cut() is called
		// by flush leaders only, and leader handoff is mutex-ordered (see
		// infer.Split).
		lastBps := -1.0
		lastCut := numLayers
		chooser = func() int {
			if link == nil || link.Down() {
				// A partitioned uplink can't carry activations; stay on the
				// edge instead of paying a fallback recompute per batch.
				return numLayers
			}
			bps := link.Bandwidth() / link.Degraded()
			if bps != lastBps {
				lastBps = bps
				env.BandwidthBps = bps
				lastCut = nn.PartitionStats(stats, env).SplitAfter + 1
			}
			return lastCut
		}
	}
	p := infer.NewSplit(det, c.cfg.inferBatch, infer.Split{
		Cut:        chooser,
		Ship:       func(rec []byte) error { return c.coord.ShipActivation(site, int64(len(rec))) },
		EdgeFLOPS:  splitEdgeFLOPS,
		CloudFLOPS: splitCloudFLOPS,
	})
	return &InferencePlane{p: p}
}

// Telemetry returns the cluster's metrics registry — the shared one passed
// via WithClusterTelemetry, or the private default. Snapshot it, diff it, or
// serve it on the debug endpoint.
func (c *Cluster) Telemetry() *Registry { return c.cfg.reg }

// Sites lists the edge site names in order.
func (c *Cluster) Sites() []string { return c.topo.Sites() }

// AddFeed registers a camera feed: the sharder assigns it to a site, whose
// Hub runs it as a Session configured by opts. The returned string is the
// assigned site name. The cluster owns the session's sink (the encoded
// stream is archived in the site's EdgeStore), so WithSink is overridden.
// Feed names are unique cluster-wide; adding after Run returns an error
// wrapping ErrStarted.
func (c *Cluster) AddFeed(name string, src FrameSource, opts ...SessionOption) (*Session, string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return nil, "", fmt.Errorf("sieve: cluster: add feed %q: %w", name, ErrStarted)
	}
	// Reject duplicates before consulting the sharder: a failed AddFeed
	// must not advance stateful policies (round-robin), or placement would
	// stop being a pure function of the accepted feed sequence.
	for _, s := range c.sites {
		for _, f := range s.feeds {
			if f.name == name {
				return nil, "", fmt.Errorf("sieve: cluster: duplicate feed %q (on %s)", name, s.name)
			}
		}
	}
	loads := make([]SiteLoad, len(c.sites))
	for i, s := range c.sites {
		loads[i] = SiteLoad{Name: s.name, Feeds: len(s.feeds), Frames: s.frames}
	}
	idx, err := c.sharder.Assign(name, loads)
	if err != nil {
		return nil, "", fmt.Errorf("sieve: cluster: placing feed %q: %w", name, err)
	}
	if idx < 0 || idx >= len(c.sites) {
		return nil, "", fmt.Errorf("sieve: cluster: sharder %s placed feed %q on site %d of %d",
			c.sharder.Name(), name, idx, len(c.sites))
	}
	site := c.sites[idx]
	sink := &container.Buffer{}
	pristine := opts[:len(opts):len(opts)]
	sess, err := site.hub.Add(name, src, append(pristine, WithSink(sink))...)
	if err != nil {
		return nil, "", err
	}
	site.feeds = append(site.feeds, &clusterFeed{name: name, sess: sess, sink: sink, src: src, opts: pristine})
	if n := src.Info().Frames; n > 0 {
		site.frames += n
	}
	return sess, site.name, nil
}

// Events returns the cluster-wide event stream: every site's events,
// tagged with their Site, merged onto one channel. Closed when Run returns.
func (c *Cluster) Events() <-chan Event { return c.events }

// Run executes every site concurrently — each site's Hub over its own
// pool — records detections into the site shards, meters the uplinks,
// archives completed streams into the per-site edge stores, then merges
// the shards in the cloud. Site failures are isolated exactly like Hub
// feed failures: Run returns the joined per-site errors plus any merge
// conflict. Run may be called once (ErrAlreadyRun) and needs at least one
// feed (ErrNoFeeds).
func (c *Cluster) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return fmt.Errorf("sieve: cluster: %w", ErrAlreadyRun)
	}
	// The admission window runs before the feed set freezes: wire feeds
	// admit themselves through AddFeed exactly like in-process callers.
	if c.ingest != nil {
		ingest := c.ingest
		c.mu.Unlock()
		if err := ingest.start(ctx, clusterIngestTarget{c}); err != nil {
			close(c.events)
			return fmt.Errorf("sieve: cluster: %w", err)
		}
		defer ingest.runEnded()
		if err := ingest.awaitAdmission(ctx); err != nil {
			c.mu.Lock()
			c.started = true
			c.mu.Unlock()
			close(c.events)
			return fmt.Errorf("sieve: cluster: %w", err)
		}
		c.mu.Lock()
	}
	c.started = true
	sites := append([]*clusterSite(nil), c.sites...)
	c.mu.Unlock()

	total := 0
	for _, s := range sites {
		total += len(s.feeds)
	}
	if total == 0 {
		close(c.events)
		return fmt.Errorf("sieve: cluster: %w", ErrNoFeeds)
	}

	// Each site runs under its own cancelable context so a scripted crash
	// can kill one site without touching the others.
	done := make(chan *clusterSite, len(sites))
	for _, s := range sites {
		siteCtx, cancel := context.WithCancel(ctx)
		c.mu.Lock()
		s.cancel = cancel
		c.mu.Unlock()
		go func(s *clusterSite, sctx context.Context) {
			err := c.runSite(sctx, s)
			c.mu.Lock()
			s.err = err
			c.mu.Unlock()
			done <- s
		}(s, siteCtx)
	}
	// Collect sites as they finish; a crashed site's feeds fail over to the
	// survivors (which are typically still running) as soon as its goroutine
	// exits and the cloud's missed-heartbeat counter confirms the death.
	var migrations sync.WaitGroup
	for range sites {
		s := <-done
		c.mu.Lock()
		failover := s.failover
		c.mu.Unlock()
		if failover {
			c.handleCrash(ctx, s, &migrations)
		}
	}
	migrations.Wait()
	c.reconcile(ctx, sites)
	close(c.events)
	for _, s := range sites {
		s.cancel()
	}

	// The merge is cloud-side work with no site or feed identity; frame -1
	// marks it as a run-level span.
	mergeSp := c.cfg.tracer.Scope("", "").Start(telemetry.StageMerge, -1)
	merged, mergeErr := c.coord.MergeAll()
	mergeSp.End()
	c.mu.Lock()
	c.merged = merged
	c.mu.Unlock()

	var errs []error
	for _, s := range sites {
		c.mu.Lock()
		err := s.err
		c.mu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("site %s: %w", s.name, err))
		}
	}
	if mergeErr != nil {
		errs = append(errs, mergeErr)
	}
	return errors.Join(errs...)
}

// runSite drives one edge site: pump its hub's events (recording
// detections into the shard, streaming incremental deltas to the cloud and
// metering the uplink), run the hub, archive the encoded streams, and ship
// the final shard report. A site killed by a scripted crash instead
// salvages its partial streams into the EdgeStore for replay and returns
// nil — the degraded markers and failover records carry the signal.
func (c *Cluster) runSite(ctx context.Context, s *clusterSite) error {
	var (
		pump    sync.WaitGroup
		pumpErr error // owned by the pump goroutine until pump.Wait
	)
	pump.Add(1)
	go func() {
		defer pump.Done()
		synced := 0 // detections recorded since the last delta flush
		// The ship scope is site-wide control-plane work, not a feed's
		// pipeline: feed stays "" and the span carries the frame number.
		ship := c.cfg.tracer.Scope(s.name, "")
		for ev := range s.hub.Events() {
			ev.Site = s.name
			// Every forwarded event is a liveness proof: heartbeats are
			// event-driven, not wall-clock timers.
			c.coord.Heartbeat(s.name)
			switch ev.Kind {
			case EventFrameEncoded:
				// Encode progress drives the fault script: frame counts are
				// the deterministic clock faults are anchored to.
				c.applyFaults(c.frunner.Observe(ev.Feed, ev.Frame+1))
			case EventDetection:
				// The edge records locally and ships the tiny detection
				// record upstream — the frame payload never crosses the WAN.
				s.shard.Put(ev.Feed, ev.Frame, ev.Labels)
				sp := ship.Start(telemetry.StageShip, ev.Frame)
				err := c.coord.ShipDetection(s.name, ev.Feed, ev.Labels)
				sp.End()
				if err != nil && pumpErr == nil {
					pumpErr = err
				}
				if synced++; synced >= c.cfg.syncEvery {
					synced = 0
					c.flushDeltas(ctx, s)
				}
			case EventStats:
				if err := c.coord.ShipStats(s.name); err != nil && pumpErr == nil {
					pumpErr = err
				}
			}
			select {
			case c.events <- ev:
			case <-ctx.Done():
				// Mirror Hub.Run: sessions unblock themselves on
				// cancellation; drain so the hub can close its channel.
				for range s.hub.Events() {
				}
				return
			}
		}
	}()

	runErr := s.hub.Run(ctx)
	if len(s.feeds) == 0 && errors.Is(runErr, ErrNoFeeds) {
		// A site the sharder left empty is healthy; running its (empty) hub
		// only serves to close the event channel for the pump.
		runErr = nil
	}
	pump.Wait()

	c.mu.Lock()
	crashed := s.failover
	c.mu.Unlock()

	var errs []error
	if !crashed {
		if runErr != nil {
			errs = append(errs, runErr)
		}
		if pumpErr != nil {
			errs = append(errs, pumpErr)
		}
	}

	feedErrs := make(map[string]string, len(s.feeds))
	for _, fs := range s.hub.Snapshot().Feeds {
		feedErrs[fs.Feed] = fs.Err
	}
	for _, f := range s.feeds {
		if crashed {
			// The crash killed the process, not the disk: finalise each
			// partial stream's index and retain it so the migrated feed can
			// replay its tail. Frames append whole, so the salvage point is
			// always a frame boundary.
			if f.sess.salvage() {
				_, _ = s.edge.PutEvict(f.name, f.sink)
			}
			continue
		}
		// Archive completed streams in the site's edge store (failed feeds
		// have no finalised stream to retain).
		if feedErrs[f.name] != "" {
			continue
		}
		if err := s.edge.Put(f.name, f.sink); err != nil {
			errs = append(errs, fmt.Errorf("archiving feed %s: %w", f.name, err))
		}
	}
	if crashed {
		return errors.Join(errs...)
	}

	// Flush the trailing delta so the cloud replica is complete, then ship
	// the end-of-run manifest. A partitioned uplink degrades the site
	// (stale-but-consistent cloud view) instead of failing the run; the
	// pre-merge reconcile pass retries if the link heals.
	c.flushDeltas(ctx, s)
	st := s.hub.Snapshot()
	err := c.coord.Submit(cluster.Report{
		Site:         s.name,
		Shard:        s.shard,
		Frames:       st.Frames,
		IFrames:      st.IFrames,
		Detections:   st.Detections,
		PayloadBytes: st.PayloadBytes,
	})
	switch {
	case err == nil:
		c.mu.Lock()
		s.submitted = true
		c.mu.Unlock()
	case errors.Is(err, simnet.ErrLinkDown):
		c.coord.MarkDegraded(s.name, fmt.Sprintf("uplink partitioned at submit; replica at cursor %d", c.coord.SyncCursor(s.name)))
	default:
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// applyFaults executes fired fault-script events. It is called from the
// site pumps (and migration pumps) as feeds report encode progress, so the
// cluster state at each firing is a pure function of per-feed frame counts.
func (c *Cluster) applyFaults(fired []faultplan.Event) {
	for _, e := range fired {
		switch e.Kind {
		case faultplan.SiteCrash:
			c.crashSite(e.Site)
		case faultplan.SiteRecover:
			c.recoverSite(e.Site)
		case faultplan.LinkDown:
			if l, ok := c.topo.Uplink(e.Site); ok {
				l.Fail()
			}
		case faultplan.LinkUp:
			if l, ok := c.topo.Uplink(e.Site); ok {
				l.Heal()
			}
		case faultplan.LinkDegrade:
			if l, ok := c.topo.Uplink(e.Site); ok {
				l.Degrade(e.Factor)
			}
		case faultplan.LoadSkew:
			c.mu.Lock()
			c.skew[e.Site] = e.Factor
			c.mu.Unlock()
		}
	}
}

func (c *Cluster) siteLocked(name string) *clusterSite {
	for _, s := range c.sites {
		if s.name == name {
			return s
		}
	}
	return nil
}

// crashSite kills a site: cancels its context (its sessions stop at their
// next frame) and drops its uplink. The EdgeStore survives — a crash is
// not disk loss.
func (c *Cluster) crashSite(name string) {
	c.mu.Lock()
	s := c.siteLocked(name)
	if s == nil || s.crashed {
		c.mu.Unlock()
		return
	}
	s.crashed, s.failover = true, true
	cancel := s.cancel
	c.fstats.crashes.Inc()
	c.mu.Unlock()
	// A crash loses the process's in-memory trace buffer, and dropping the
	// dying site's tail spans keeps fault-plan traces deterministic (how far
	// it limped past the trigger is scheduling noise).
	c.cfg.tracer.DropSite(name)
	if l, ok := c.topo.Uplink(name); ok {
		l.Fail()
	}
	if cancel != nil {
		cancel()
	}
}

// recoverSite heals a crashed site's uplink and puts it back in the load
// table: feeds already migrated away stay where they are, but the site is
// eligible to adopt future failovers, and the reconcile pass can ship its
// pre-crash shard once the link is up.
func (c *Cluster) recoverSite(name string) {
	c.mu.Lock()
	s := c.siteLocked(name)
	if s == nil || !s.crashed {
		c.mu.Unlock()
		return
	}
	s.crashed = false
	s.recovered = true
	c.fstats.recoveries.Inc()
	c.mu.Unlock()
	if l, ok := c.topo.Uplink(name); ok {
		l.Heal()
	}
}

// handleCrash runs on the Run goroutine when a crashed site's goroutine
// exits. The cloud first confirms the death the way a real coordinator
// would — observing silence epochs until the missed-heartbeat counter
// crosses the threshold — then every feed of the dead site is re-sharded
// over the survivors. Target assignment is sequential in feed Add order so
// stateful sharders (round-robin) place deterministically; the migrations
// themselves run concurrently.
func (c *Cluster) handleCrash(ctx context.Context, dead *clusterSite, wg *sync.WaitGroup) {
	for !c.coord.SuspectDead(dead.name) {
		c.coord.NoteSilence(dead.name)
	}
	c.coord.MarkDegraded(dead.name,
		fmt.Sprintf("crashed after %d missed heartbeats; feeds failing over", cluster.HeartbeatThreshold))
	for _, f := range dead.feeds {
		target, err := c.assignFailover(f.name, dead)
		if err != nil {
			c.noteLostFeed(dead, f.name, err)
			continue
		}
		f := f
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.runMigratedFeed(ctx, dead, f, target); err != nil {
				c.noteLostFeed(dead, f.name, err)
			}
		}()
	}
}

func (c *Cluster) noteLostFeed(dead *clusterSite, feed string, err error) {
	c.fstats.lost.Inc()
	c.coord.MarkDegraded(dead.name, fmt.Sprintf("feed %s lost in failover: %v", feed, err))
}

// assignFailover re-shards an orphaned feed over the surviving sites using
// the cluster's own Sharder, with each site's expected frames multiplied by
// any scripted LoadSkew factor (steering placements away from "slow"
// sites).
func (c *Cluster) assignFailover(name string, from *clusterSite) (*clusterSite, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var eligible []*clusterSite
	var loads []SiteLoad
	for _, s := range c.sites {
		if s == from || s.crashed {
			continue
		}
		frames := s.frames
		if k := c.skew[s.name]; k > 1 {
			frames = int(float64(frames) * k)
		}
		eligible = append(eligible, s)
		loads = append(loads, SiteLoad{Name: s.name, Feeds: len(s.feeds), Frames: frames})
	}
	if len(eligible) == 0 {
		return nil, errors.New("no surviving site to adopt the feed")
	}
	idx, err := c.sharder.Assign(name, loads)
	if err != nil {
		return nil, err
	}
	if idx < 0 || idx >= len(eligible) {
		return nil, fmt.Errorf("sharder %s placed feed %q on site %d of %d survivors",
			c.sharder.Name(), name, idx, len(eligible))
	}
	return eligible[idx], nil
}

// runMigratedFeed resumes one orphaned feed on its adoptive site. The
// resume point is the smallest I-frame boundary of the dead site's salvaged
// stream not yet covered by the cloud replicas (EdgeStore.ResumePoint), so
// every detection lost between the last delta flush and the crash is
// re-produced. A seekable source is rewound to that boundary and re-run to
// the end; an unseekable (live) source replays the pinned EdgeStore tail
// only, with the live continuation reconnecting through the ingest plane's
// RESUME path. The fresh session opens on an I-frame by construction — the
// forced I-frame that heals the gap — and withFrameBase keeps the original
// frame numbering, so re-encoding from an original I-frame boundary yields
// byte-identical downstream frames and the duplicate detections merge
// silently into the global view.
func (c *Cluster) runMigratedFeed(ctx context.Context, from *clusterSite, f *clusterFeed, to *clusterSite) error {
	base := 0
	if b, err := from.edge.ResumePoint(f.name, c.coord.AppliedFrame(f.name)); err == nil {
		base = b
	}

	src := f.src
	var release func()
	if sk, ok := src.(interface{ Seek(int) error }); ok {
		if err := sk.Seek(base); err != nil {
			return fmt.Errorf("rewinding source to frame %d: %w", base, err)
		}
	} else {
		// Pin the salvaged stream so quota eviction on the dead site's
		// store cannot invalidate the open replay cursor.
		rel, err := from.edge.Pin(f.name)
		if err != nil {
			return fmt.Errorf("no replayable stream: %w", err)
		}
		release = rel
		r, err := from.edge.Open(f.name)
		if err != nil {
			release()
			return err
		}
		rs, err := NewReplaySource(r)
		if err != nil {
			release()
			return err
		}
		if err := rs.Seek(base); err != nil {
			release()
			return err
		}
		src = rs
	}
	if release != nil {
		defer release()
	}

	sink := &container.Buffer{}
	// The migrated session joins the cluster registry under the adoptive
	// site's label, but gets no trace scope: failover replay is a recovery
	// action, not a pipeline stage, and tracing it would make fault-plan
	// traces depend on migration scheduling.
	opts := append(f.opts[:len(f.opts):len(f.opts)], WithName(f.name), WithSink(sink), withFrameBase(base),
		WithTelemetry(c.cfg.reg), withTraceSite(to.name))
	if c.cfg.inferDet != nil {
		// The dead site's shared inference plane died with its hub; the
		// migrated session falls back to the batch-of-1 configuration of the
		// same detector, which is result-identical by construction.
		opts = append(opts, WithDetector(c.cfg.inferDet))
	}
	sess, err := NewSession(src, opts...)
	if err != nil {
		return err
	}

	var pump sync.WaitGroup
	pump.Add(1)
	replayed := 0
	go func() {
		defer pump.Done()
		synced := 0
		for ev := range sess.Events() {
			ev.Site = to.name
			c.coord.Heartbeat(to.name)
			switch ev.Kind {
			case EventFrameEncoded:
				replayed++
				c.applyFaults(c.frunner.Observe(ev.Feed, ev.Frame+1))
			case EventDetection:
				to.shard.Put(ev.Feed, ev.Frame, ev.Labels)
				_ = c.coord.ShipDetection(to.name, ev.Feed, ev.Labels)
				if synced++; synced >= c.cfg.syncEvery {
					synced = 0
					c.flushDeltas(ctx, to)
				}
			case EventStats:
				_ = c.coord.ShipStats(to.name)
			}
			select {
			case c.events <- ev:
			case <-ctx.Done():
				for range sess.Events() {
				}
				return
			}
		}
	}()
	runErr := sess.Run(ctx)
	pump.Wait()
	if runErr != nil {
		return runErr
	}
	c.flushDeltas(ctx, to)
	// Retain the replayed tail segment on the adoptive site; under quota
	// pressure the results have already shipped, so a failed archive only
	// loses the redundant stream copy.
	_, _ = to.edge.PutEvict(f.name, sink)

	c.mu.Lock()
	c.fstats.migrated.Inc()
	c.fstats.replayed.Add(int64(replayed))
	to.frames += replayed
	c.failovers = append(c.failovers, Failover{
		Feed: f.name, From: from.name, To: to.name,
		ResumeFrame: base, ReplayedFrames: replayed,
	})
	c.mu.Unlock()
	return nil
}

// flushDeltas ships the shard entries the cloud replica has not applied
// yet, retrying a partitioned uplink on the deterministic exponential
// backoff schedule (virtual sleeps — exhaustion is instant and identical
// every run). Exhaustion marks the site degraded; the next successful
// flush clears the marker. Concurrent flushes for one site (its own pump
// plus a migration pump) are safe: deltas always start at the replica's
// cursor and overlapping retransmissions apply idempotently.
func (c *Cluster) flushDeltas(ctx context.Context, s *clusterSite) {
	if c.coord.SyncCursor(s.name) == s.shard.Version() {
		return
	}
	b := retry.Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, MaxAttempts: c.cfg.syncAttempts}
	attempts, err := retry.Do(ctx, c.syncClock, b, func() error {
		d, derr := s.shard.DeltaSince(c.coord.SyncCursor(s.name))
		if derr != nil {
			return derr
		}
		if d.From == d.To {
			return nil // another flusher already caught the replica up
		}
		return c.coord.ShipDelta(s.name, d)
	})
	c.fstats.deltaSyncs.Inc()
	c.fstats.retries.Add(int64(attempts - 1))
	if err != nil {
		c.coord.MarkDegraded(s.name,
			fmt.Sprintf("delta sync stalled at cursor %d: %v", c.coord.SyncCursor(s.name), err))
	} else {
		c.coord.ClearDegraded(s.name)
	}
}

// reconcile is the pre-merge sweep: every site that has not delivered its
// final report gets one more delta flush and submit attempt, so a site
// whose uplink healed after its goroutine finished (linkup or recovery
// late in the script) still contributes an authoritative shard instead of
// a stale replica. Sites still partitioned fail here too and keep their
// degraded markers.
func (c *Cluster) reconcile(ctx context.Context, sites []*clusterSite) {
	for _, s := range sites {
		c.mu.Lock()
		submitted, down := s.submitted, s.crashed
		c.mu.Unlock()
		if submitted || down {
			// A still-crashed site's uplink is gone; MergeAll will fall back
			// to its streamed replica and mark it degraded.
			continue
		}
		c.flushDeltas(ctx, s)
		st := s.hub.Snapshot()
		if err := c.coord.Submit(cluster.Report{
			Site:         s.name,
			Shard:        s.shard,
			Frames:       st.Frames,
			IFrames:      st.IFrames,
			Detections:   st.Detections,
			PayloadBytes: st.PayloadBytes,
		}); err == nil {
			c.mu.Lock()
			s.submitted = true
			c.mu.Unlock()
			c.coord.ClearDegraded(s.name)
		}
	}
}

// View merges the cloud's shadow replicas into a snapshot of the global
// view — continuously queryable while Run is in flight, fed by the
// streaming delta sync. Under a partition the affected site's slice of the
// view is stale but never torn: deltas apply atomically, so the view lags
// by whole deltas.
func (c *Cluster) View() (*ResultsDB, error) { return c.coord.View() }

// Degraded lists the sites whose contribution to the merged view is
// incomplete or stale, with reasons, sorted by site. Empty after a fully
// healthy run.
func (c *Cluster) Degraded() []DegradedSite { return c.coord.Degraded() }

// Failovers lists the feeds migrated off crashed sites, in completion
// order.
func (c *Cluster) Failovers() []Failover {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Failover(nil), c.failovers...)
}

// Merged returns the cloud's merged global ResultsDB. Only available after
// Run has completed (and merged without conflicts).
func (c *Cluster) Merged() (*ResultsDB, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.merged == nil {
		return nil, errors.New("sieve: cluster: no merged view: Run has not completed, or the merge failed (see Run's error)")
	}
	return c.merged, nil
}

// Query answers "which frames of camera show class" on the merged view.
func (c *Cluster) Query(camera, class string, from, to int) ([]int, error) {
	if _, err := c.Merged(); err != nil {
		return nil, err
	}
	return c.coord.Query(camera, class, from, to)
}

// Track materialises a camera's propagated per-frame labels from the
// merged view.
func (c *Cluster) Track(camera string, numFrames int) (LabelTrack, error) {
	if _, err := c.Merged(); err != nil {
		return nil, err
	}
	return c.coord.Track(camera, numFrames)
}

// EdgeStore returns a site's edge store (the encoded streams it retained).
func (c *Cluster) EdgeStore(site string) (*EdgeStoreDB, error) {
	for _, s := range c.sites {
		if s.name == site {
			return s.edge, nil
		}
	}
	return nil, fmt.Errorf("sieve: cluster: unknown site %q", site)
}

// SeekEvent locates the GOP containing a camera's frame, searching every
// site's edge store (post-event analysis does not need to know the
// sharding). It returns the frame metadata and the owning site.
func (c *Cluster) SeekEvent(camera string, target int) (FrameMeta, string, error) {
	for _, s := range c.sites {
		for _, stored := range s.edge.Cameras() {
			if stored == camera {
				m, err := s.edge.SeekEvent(camera, target)
				return m, s.name, err
			}
		}
	}
	return FrameMeta{}, "", fmt.Errorf("sieve: cluster: no site stores camera %q", camera)
}

// SiteStats is one edge site's snapshot: its hub counters plus uplink and
// storage accounting.
type SiteStats struct {
	// Site is the site name.
	Site string
	// Hub is the site's per-feed and aggregate hub snapshot.
	Hub HubStats
	// UplinkBytes / UplinkTransfers / UplinkBusy meter the site's
	// edge→cloud link (detections + stats + shard sync).
	UplinkBytes     int64
	UplinkTransfers int64
	UplinkBusy      time.Duration
	// StoredBytes is the site's edge-store usage.
	StoredBytes int64
	// Split holds the site plane's partitioned-inference counters (zero
	// unless the cluster was built with WithSplitInference).
	Split SplitStats
	// Err is the site's terminal error message ("" while running or on
	// success).
	Err string
}

// ClusterStats aggregates a snapshot across sites.
type ClusterStats struct {
	// Sites lists per-site stats in site order.
	Sites []SiteStats
	// Frames/IFrames/Detections/PayloadBytes are cluster-wide totals.
	Frames       int
	IFrames      int
	Detections   int
	PayloadBytes int64
	// UplinkBytes is the total shipped over every site's uplink.
	UplinkBytes int64
	// Inference aggregates the per-site planes' batching counters (zero
	// unless the cluster was built with WithClusterInference): total
	// batches and frames summed over sites, MaxBatch the fleet-wide
	// largest batch.
	Inference InferenceStats
	// Split aggregates the per-site planes' partitioned-inference counters
	// (zero unless the cluster was built with WithSplitInference): batches
	// split / fallen back and activation bytes summed over sites, modelled
	// tier times summed, Cut the largest per-site cut currently in force.
	Split SplitStats
	// Ingest holds the network ingest plane's counters (zero unless the
	// cluster was built with WithClusterListener).
	Ingest IngestStats
	// MergedEntries counts (camera, frame) rows in the merged view (0
	// before Run completes).
	MergedEntries int
	// Crashes/Recoveries count scripted site deaths and rejoins;
	// MigratedFeeds and LostFeeds count failover outcomes, and
	// ReplayedFrames the frames re-encoded by adoptive sites.
	Crashes, Recoveries, MigratedFeeds, LostFeeds, ReplayedFrames int
	// DeltaSyncs counts streaming shard-sync flushes; SyncRetries the extra
	// attempts the backoff schedule spent on partitioned uplinks.
	DeltaSyncs, SyncRetries int64
	// Failovers records each migrated feed (see Failover).
	Failovers []Failover
	// Degraded lists sites whose slice of the merged view is incomplete or
	// stale, with reasons.
	Degraded []DegradedSite
}

// FilterRate is the cluster-wide share of frames dropped at the edges.
func (st ClusterStats) FilterRate() float64 {
	if st.Frames == 0 {
		return 0
	}
	return 1 - float64(st.IFrames)/float64(st.Frames)
}

// Snapshot reports per-site and aggregate counters; safe to call while Run
// is in flight.
func (c *Cluster) Snapshot() ClusterStats {
	c.mu.Lock()
	sites := append([]*clusterSite(nil), c.sites...)
	merged := c.merged
	fs := c.fstats
	failovers := append([]Failover(nil), c.failovers...)
	c.mu.Unlock()
	st := ClusterStats{
		Sites:          make([]SiteStats, 0, len(sites)),
		Crashes:        int(fs.crashes.Value()),
		Recoveries:     int(fs.recoveries.Value()),
		MigratedFeeds:  int(fs.migrated.Value()),
		LostFeeds:      int(fs.lost.Value()),
		ReplayedFrames: int(fs.replayed.Value()),
		DeltaSyncs:     fs.deltaSyncs.Value(),
		SyncRetries:    fs.retries.Value(),
		Failovers:      failovers,
		Degraded:       c.coord.Degraded(),
	}
	if merged != nil {
		st.MergedEntries = merged.Len()
	}
	if c.ingest != nil {
		st.Ingest = c.ingest.Stats()
	}
	for _, s := range sites {
		ss := SiteStats{Site: s.name, Hub: s.hub.Snapshot(), StoredBytes: s.edge.Used()}
		if bytes, transfers, busy, err := c.coord.UplinkStats(s.name); err == nil {
			ss.UplinkBytes, ss.UplinkTransfers, ss.UplinkBusy = bytes, transfers, busy
		}
		if ip, ok := c.splitPlanes[s.name]; ok {
			ss.Split = ip.SplitStats()
			st.Split.SplitBatches += ss.Split.SplitBatches
			st.Split.Fallbacks += ss.Split.Fallbacks
			st.Split.ActivationBytes += ss.Split.ActivationBytes
			st.Split.EdgeTime += ss.Split.EdgeTime
			st.Split.CloudTime += ss.Split.CloudTime
			st.Split.NumLayers = ss.Split.NumLayers
			if ss.Split.Cut > st.Split.Cut {
				st.Split.Cut = ss.Split.Cut
			}
		}
		c.mu.Lock()
		if s.err != nil {
			ss.Err = s.err.Error()
		}
		c.mu.Unlock()
		st.Sites = append(st.Sites, ss)
		st.Frames += ss.Hub.Frames
		st.IFrames += ss.Hub.IFrames
		st.Detections += ss.Hub.Detections
		st.PayloadBytes += ss.Hub.PayloadBytes
		st.UplinkBytes += ss.UplinkBytes
		st.Inference.Batches += ss.Hub.Inference.Batches
		st.Inference.Frames += ss.Hub.Inference.Frames
		if ss.Hub.Inference.MaxBatch > st.Inference.MaxBatch {
			st.Inference.MaxBatch = ss.Hub.Inference.MaxBatch
		}
	}
	return st
}
