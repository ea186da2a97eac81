package sieve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"sieve/internal/cluster"
	"sieve/internal/container"
	"sieve/internal/faultplan"
	"sieve/internal/infer"
	"sieve/internal/labels"
	"sieve/internal/nn"
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
	// right now (a SiteRecover clears it); failover: it crashed at some
	// point, so its feeds need migration when its goroutine exits;
	// submitted: its final report reached the cloud.
	crashed   bool
	failover  bool
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
	topo    *cluster.Topology
	coord   *cluster.Coordinator
	frunner *faultplan.Runner
	// syncClock paces delta-sync retry backoff. It is a VirtualClock — like
	// the simnet links, retry time is simulated, so a partitioned site
	// exhausts its schedule instantly and deterministically instead of
	// stalling the run.
	syncClock Clock

	// sites is fixed at NewCluster, so finding a site needs no lock; the
	// per-site state it points to is guarded by mu.
	sites     []*clusterSite
	mu        sync.Mutex
	started   bool
	merged    *ResultsDB
	events    chan Event
	skew      map[string]float64 // LoadSkew factors by site (failover placement)
	failovers []Failover
	fstats    failoverCounters
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
		topo:      topo,
		coord:     cluster.NewCoordinator(topo),
		frunner:   faultplan.NewRunner(cfg.faults),
		syncClock: NewVirtualClock(time.Unix(0, 0).UTC()),
		events:    make(chan Event, eventBuffer),
		skew:      make(map[string]float64),
	}
	c.fstats = newFailoverCounters(cfg.reg)
	cfg.ingest.instrument(cfg.reg)
	cfg.reg.Describe("sieve_cluster_edge_store_bytes", "per-site edge store usage")
	cfg.reg.Describe("sieve_cluster_uplink_bytes", "per-site bytes shipped over the edge-to-cloud uplink")
	cfg.reg.Describe("sieve_cluster_degraded_sites", "sites whose slice of the merged view is incomplete or stale")
	for _, name := range names {
		c.coord.Register(name)
		hubOpts := []HubOption{
			WithWorkers(cfg.siteWorkers),
			WithHubTelemetry(cfg.reg), withHubSite(name), WithHubTrace(cfg.tracer),
		}
		if cfg.inferDet != nil {
			hubOpts = append(hubOpts, withHubPlane(c.newSitePlane(name)))
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

// newSitePlane builds one site's shared inference plane. A split plane
// also gets the cut chooser bound to the site's uplink, the ship hook
// metering activations through the coordinator, and the modelled tier
// rates for the split telemetry.
func (c *Cluster) newSitePlane(site string) *InferencePlane {
	det := c.cfg.inferDet
	if !c.cfg.split {
		return NewInferencePlane(det, c.cfg.inferBatch)
	}
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
	idx, err := c.cfg.sharder.Assign(name, loads)
	if err != nil {
		return nil, "", fmt.Errorf("sieve: cluster: placing feed %q: %w", name, err)
	}
	if idx < 0 || idx >= len(c.sites) {
		return nil, "", fmt.Errorf("sieve: cluster: sharder %s placed feed %q on site %d of %d",
			c.cfg.sharder.Name(), name, idx, len(c.sites))
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
	// The feed set freezes once the admission window, if any, closes.
	ended, err := c.cfg.ingest.admit(ctx, clusterIngestTarget{c}, &c.mu, &c.started)
	c.mu.Unlock()
	if err != nil {
		close(c.events)
		return fmt.Errorf("sieve: cluster: %w", err)
	}
	defer ended()

	if !slices.ContainsFunc(c.sites, func(s *clusterSite) bool { return len(s.feeds) > 0 }) {
		close(c.events)
		return fmt.Errorf("sieve: cluster: %w", ErrNoFeeds)
	}

	// Each site runs under its own cancelable context so a scripted crash
	// can kill one site without touching the others.
	done := make(chan *clusterSite, len(c.sites))
	for _, s := range c.sites {
		siteCtx, cancel := context.WithCancel(ctx)
		c.mu.Lock()
		s.cancel = cancel
		c.mu.Unlock()
		go func() {
			err := c.runSite(siteCtx, s)
			c.mu.Lock()
			s.err = err
			c.mu.Unlock()
			done <- s
		}()
	}
	// Collect sites as they finish; a crashed site's feeds fail over to the
	// survivors (which are typically still running) as soon as its goroutine
	// exits and the cloud's missed-heartbeat counter confirms the death.
	var migrations sync.WaitGroup
	for range c.sites {
		s := <-done
		c.mu.Lock()
		failover := s.failover
		c.mu.Unlock()
		if failover {
			c.handleCrash(ctx, s, &migrations)
		}
	}
	migrations.Wait()
	c.reconcile(ctx)
	close(c.events)
	for _, s := range c.sites {
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

	// Every site's err was written before its done send, which Run has
	// received.
	var errs []error
	for _, s := range c.sites {
		if s.err != nil {
			errs = append(errs, fmt.Errorf("site %s: %w", s.name, s.err))
		}
	}
	return errors.Join(append(errs, mergeErr)...)
}

// runSite drives one edge site: pump its hub's events (recording
// detections into the shard, streaming incremental deltas to the cloud and
// metering the uplink), run the hub, archive the encoded streams, and ship
// the final shard report. A site killed by a scripted crash instead
// salvages its partial streams into the EdgeStore for replay and returns
// nil — the degraded markers and failover records carry the signal.
func (c *Cluster) runSite(ctx context.Context, s *clusterSite) error {
	pumped := make(chan error, 1)
	go func() {
		// The ship scope is site-wide control-plane work, not a feed's
		// pipeline: feed stays "" and the span carries the frame number.
		_, err := c.pump(ctx, s, s.hub.Events(), c.cfg.tracer.Scope(s.name, ""))
		pumped <- err
	}()

	runErr := s.hub.Run(ctx)
	if len(s.feeds) == 0 && errors.Is(runErr, ErrNoFeeds) {
		// A site the sharder left empty is healthy; running its (empty) hub
		// only serves to close the event channel for the pump.
		runErr = nil
	}
	pumpErr := <-pumped

	c.mu.Lock()
	crashed := s.failover
	c.mu.Unlock()
	if crashed {
		// The crash killed the process, not the disk: finalise each partial
		// stream's index and retain it so the migrated feed can replay its
		// tail. Frames append whole, so the salvage point is always a frame
		// boundary.
		for _, f := range s.feeds {
			if f.sess.salvage() {
				_, _ = s.edge.PutEvict(f.name, f.sink)
			}
		}
		return nil
	}

	errs := []error{runErr, pumpErr}
	feedErrs := make(map[string]string, len(s.feeds))
	for _, fs := range s.hub.Snapshot().Feeds {
		feedErrs[fs.Feed] = fs.Err
	}
	for _, f := range s.feeds {
		// Archive completed streams in the site's edge store (failed feeds
		// have no finalised stream to retain).
		if feedErrs[f.name] != "" {
			continue
		}
		if err := s.edge.Put(f.name, f.sink); err != nil {
			errs = append(errs, fmt.Errorf("archiving feed %s: %w", f.name, err))
		}
	}

	// A partitioned uplink degrades the site (stale-but-consistent cloud
	// view) instead of failing the run; the pre-merge reconcile pass
	// retries if the link heals.
	switch err := c.submit(ctx, s); {
	case errors.Is(err, simnet.ErrLinkDown):
		c.coord.MarkDegraded(s.name, fmt.Sprintf("uplink partitioned at submit; replica at cursor %d", c.coord.SyncCursor(s.name)))
	case err != nil:
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// pump forwards a site's events onto the cluster stream with the cloud
// work each implies: a heartbeat per event, fault-script progress per
// encoded frame, and per detection a shard record, an uplink ship and,
// every syncEvery detections, a delta flush. A live site and a failover
// migration share it, and their differences are parameters: s is the
// site charged (the adoptive one for a migration), events the hub's or
// migrated session's stream, ship the detection-ship span scope (nil for
// a migration). It returns the frames encoded and the first ship error.
func (c *Cluster) pump(ctx context.Context, s *clusterSite, events <-chan Event, ship *telemetry.Scope) (encoded int, err error) {
	synced := 0 // detections recorded since the last delta flush
	for ev := range events {
		ev.Site = s.name
		// Every forwarded event is a liveness proof: heartbeats are
		// event-driven, not wall-clock timers.
		c.coord.Heartbeat(s.name)
		var shipErr error
		switch ev.Kind {
		case EventFrameEncoded:
			// Encode progress drives the fault script: frame counts are
			// the deterministic clock faults are anchored to.
			encoded++
			c.applyFaults(c.frunner.Observe(ev.Feed, ev.Frame+1))
		case EventDetection:
			// The edge records locally and ships the tiny detection
			// record upstream — the frame payload never crosses the WAN.
			s.shard.Put(ev.Feed, ev.Frame, ev.Labels)
			sp := ship.Start(telemetry.StageShip, ev.Frame)
			shipErr = c.coord.ShipDetection(s.name, ev.Feed, ev.Labels)
			sp.End()
			if synced++; synced >= c.cfg.syncEvery {
				synced = 0
				c.flushDeltas(ctx, s)
			}
		case EventStats:
			shipErr = c.coord.ShipStats(s.name)
		}
		if err == nil {
			err = shipErr
		}
		select {
		case c.events <- ev:
		case <-ctx.Done():
			// Sessions unblock themselves on cancellation; drain so the
			// producer can close its channel.
			for range events {
			}
			return encoded, err
		}
	}
	return encoded, err
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
	if s := c.site(site); s != nil {
		return s.edge, nil
	}
	return nil, fmt.Errorf("sieve: cluster: unknown site %q", site)
}

// site returns the named site, or nil.
func (c *Cluster) site(name string) *clusterSite {
	for _, s := range c.sites {
		if s.name == name {
			return s
		}
	}
	return nil
}

// SeekEvent locates the GOP containing a camera's frame, searching every
// site's edge store (post-event analysis does not need to know the
// sharding). It returns the frame metadata and the owning site.
func (c *Cluster) SeekEvent(camera string, target int) (FrameMeta, string, error) {
	if s := c.siteStoring(camera); s != nil {
		m, err := s.edge.SeekEvent(camera, target)
		return m, s.name, err
	}
	return FrameMeta{}, "", fmt.Errorf("sieve: cluster: no site stores camera %q", camera)
}

// siteStoring returns the first site whose edge store holds camera's
// stream, or nil.
func (c *Cluster) siteStoring(camera string) *clusterSite {
	for _, s := range c.sites {
		if slices.Contains(s.edge.Cameras(), camera) {
			return s
		}
	}
	return nil
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
	merged := c.merged
	c.mu.Unlock()
	fs := c.fstats
	st := ClusterStats{
		Sites:          make([]SiteStats, 0, len(c.sites)),
		Crashes:        int(fs.crashes.Value()),
		Recoveries:     int(fs.recoveries.Value()),
		MigratedFeeds:  int(fs.migrated.Value()),
		LostFeeds:      int(fs.lost.Value()),
		ReplayedFrames: int(fs.replayed.Value()),
		DeltaSyncs:     fs.deltaSyncs.Value(),
		SyncRetries:    fs.retries.Value(),
		Failovers:      c.Failovers(),
		Degraded:       c.coord.Degraded(),
	}
	if merged != nil {
		st.MergedEntries = merged.Len()
	}
	if c.cfg.ingest != nil {
		st.Ingest = c.cfg.ingest.Stats()
	}
	for _, s := range c.sites {
		ss := SiteStats{Site: s.name, Hub: s.hub.Snapshot(), StoredBytes: s.edge.Used()}
		if bytes, transfers, busy, err := c.coord.UplinkStats(s.name); err == nil {
			ss.UplinkBytes, ss.UplinkTransfers, ss.UplinkBusy = bytes, transfers, busy
		}
		if ip := s.hub.plane; ip != nil {
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
