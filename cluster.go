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
	site         []HubOption // every site hub's own options (WithWorkers, WithHubInference)
	uplinkBps    float64
	latency      time.Duration
	quota        int64
	split        bool // partition the site planes across their uplinks at splitCut
	splitCut     int
	ingest       *IngestListener
	faults       *FaultPlan
	syncEvery    int
	syncAttempts int
	tracer       *telemetry.Tracer
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
// feeds encode concurrently (default GOMAXPROCS). It is the site hub's
// WithWorkers.
func WithSiteWorkers(n int) ClusterOption {
	return func(c *clusterConfig) { c.site = append(c.site, WithWorkers(n)) }
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
// passes and sites are the unit of horizontal scale-out. A feed that fails
// over to a site from a crashed one joins that site's plane. Results are
// byte-identical to the per-feed path; see SiteStats.Hub.Inference and
// ClusterStats.Inference for the amortisation counters. It is the site
// hub's WithHubInference. The last inference option wins: it replaces an
// earlier WithSplitInference, split included.
func WithClusterInference(det *Detector, batchSize int) ClusterOption {
	return func(c *clusterConfig) {
		c.site = append(c.site, WithHubInference(det, batchSize))
		c.split, c.splitCut = false, 0
	}
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

// WithSplitInference is WithClusterInference with the forward pass itself
// partitioned across the uplink: each site's plane runs layers [0,cut) on
// the edge, ships the intermediate activation over the site's metered
// uplink (so linkdown/degrade faults apply to activations exactly like
// detections and deltas), and finishes layers [cut,N) in the cloud. cut is
// a fixed layer index for every site, or SplitAuto to tune each site's cut
// from its own observed bandwidth; NewCluster refuses any other negative
// cut. cut >= the network depth degrades to the all-edge
// WithClusterInference path; a partitioned uplink makes affected batches
// fall back to edge recompute. Results are byte-identical to the all-edge
// path at every cut under every fault — the split moves compute and bytes,
// never detections. See ClusterStats.Split.
func WithSplitInference(det *Detector, batchSize, cut int) ClusterOption {
	return func(c *clusterConfig) {
		c.site = append(c.site, WithHubInference(det, batchSize))
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
// site's uplink drops and its sessions stop; once its goroutine has
// exited, the site's feeds are re-sharded over the surviving sites and
// each resumes at an I-frame boundary, replaying its tail from the dead
// site's EdgeStore, so the merged view still converges on the fault-free
// result. See FaultPlan.
func WithFaultPlan(p *FaultPlan) ClusterOption {
	return func(c *clusterConfig) { c.faults = p }
}

// WithDeltaSync tunes the streaming shard replication: every `every`
// detections a site ships an incremental ResultsDB delta to the cloud
// (making the global view queryable mid-run via Cluster.View), trying a
// failed ship up to `attempts` times in a row before marking the site
// degraded. Defaults: every 8, 4 attempts.
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
	// mu orders the site's detection work (see siteHook) and its delta
	// flushes, and guards synced: detections since the last flush.
	mu     sync.Mutex
	synced int
	// Failover state (guarded by Cluster.mu). crashed: the site is down
	// right now (a SiteRecover clears it); failover: it crashed at some
	// point, so its feeds need migration when its goroutine exits.
	crashed  bool
	failover bool
	cancel   context.CancelFunc
}

// Cluster is the multi-site deployment of Figure 1: N camera feeds sharded
// across K edge sites, each site a Hub with its own worker pool, ResultsDB
// shard and EdgeStore, shipping I-frame detections and stats to a simulated
// cloud over per-site metered uplinks. After Run, the cloud coordinator has
// merged its replicas of the shards — built only from the deltas that
// crossed the uplinks — into one conflict-checked global view serving
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
	reg     *telemetry.Registry // every site's and the cluster's own series
	topo    *cluster.Topology
	coord   *cluster.Coordinator
	frunner *faultplan.Runner

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
	if cfg.split && cfg.splitCut < 0 && cfg.splitCut != SplitAuto {
		return nil, fmt.Errorf("sieve: cluster: split cut %d: want a layer index >= 0 or SplitAuto", cfg.splitCut)
	}
	reg := telemetry.NewRegistry()
	names := make([]string, numSites)
	for i := range names {
		names[i] = fmt.Sprintf("site%d", i)
	}
	topo, err := cluster.NewStarTopology(names, cfg.uplinkBps, cfg.latency)
	if err != nil {
		return nil, fmt.Errorf("sieve: cluster: %w", err)
	}
	c := &Cluster{
		cfg:     cfg,
		reg:     reg,
		topo:    topo,
		coord:   cluster.NewCoordinator(topo),
		frunner: faultplan.NewRunner(cfg.faults),
		events:  make(chan Event, eventBuffer),
		skew:    make(map[string]float64),
	}
	c.fstats = newFailoverCounters(reg)
	reg.Describe("sieve_cluster_edge_store_bytes", "per-site edge store usage")
	reg.Describe("sieve_cluster_uplink_bytes", "per-site bytes shipped over the edge-to-cloud uplink")
	reg.Describe("sieve_cluster_degraded_sites", "sites whose slice of the merged view is incomplete or stale")
	for _, name := range names {
		c.coord.Register(name)
		s := &clusterSite{name: name, shard: NewResultsDB(), edge: store.NewEdgeStore(cfg.quota)}
		own := owner{reg: reg, site: name, tracer: cfg.tracer, events: c.events, hook: c.siteHook(s)}
		hopts := append(cfg.site[:len(cfg.site):len(cfg.site)], withHubOwner(own))
		if cfg.split {
			link, _ := topo.Uplink(name)
			ship := func(rec []byte) error { return c.coord.ShipActivation(name, int64(len(rec))) }
			hopts = append(hopts, withSplit(siteSplit{cut: cfg.splitCut, link: link, ship: ship}))
		}
		s.hub = NewHub(hopts...)
		c.sites = append(c.sites, s)
		// Sampled gauges: storage and uplink accounting live in their own
		// planes, so a collect hook reads them at snapshot/scrape time
		// instead of threading counters through the store and simnet layers.
		stored := reg.Gauge("sieve_cluster_edge_store_bytes", telemetry.L("site", name))
		uplink := reg.Gauge("sieve_cluster_uplink_bytes", telemetry.L("site", name))
		reg.OnCollect(func() {
			stored.Set(s.edge.Used())
			if bytes, _, _, err := c.coord.UplinkStats(s.name); err == nil {
				uplink.Set(bytes)
			}
		})
	}
	degraded := reg.Gauge("sieve_cluster_degraded_sites")
	reg.OnCollect(func() { degraded.Set(int64(len(c.coord.Degraded()))) })
	return c, nil
}

// siteSplit is one cluster site's partition of its plane's forward pass:
// the cut WithSplitInference asked for, the site's uplink the SplitAuto
// chooser reads, and the hook that meters each activation through the
// coordinator. The site hub's plane is built from it (see newPlane).
type siteSplit struct {
	cut  int          // a layer index >= 0, or SplitAuto
	link *simnet.Link // the site's uplink, nil when the topology has none
	ship func(rec []byte) error
}

// hooks binds the split to the plane's network: a fixed cut as is, or
// SplitAuto's chooser, which re-evaluates the partition only when the
// observed bandwidth moves — the layer profile is static, so the cut is a
// pure function of the link state. The chooser keeps plain fields, no
// lock: Cut() is called by the plane's combiner only, and combiners are
// mutex-ordered (see infer.Split).
func (sp siteSplit) hooks(net *nn.Network) infer.Split {
	if sp.cut != SplitAuto {
		return infer.Split{Cut: func() int { return sp.cut }, Ship: sp.ship}
	}
	stats := net.Stats()
	numLayers := len(stats)
	env := nn.Env{
		EdgeFLOPS:   nn.EdgeTierFLOPS,
		CloudFLOPS:  nn.CloudTierFLOPS,
		InputBytes:  net.Input.Bytes(),
		ReturnBytes: splitReturnWireBytes,
	}
	lastBps := -1.0
	lastCut := numLayers
	chooser := func() int {
		if sp.link == nil || sp.link.Down() {
			// A partitioned uplink can't carry activations; stay on the
			// edge instead of paying a fallback recompute per batch.
			return numLayers
		}
		bps := sp.link.Bandwidth() / sp.link.Degraded()
		if bps != lastBps {
			lastBps = bps
			env.BandwidthBps = bps
			lastCut = nn.PartitionStats(stats, env).SplitAfter + 1
		}
		return lastCut
	}
	return infer.Split{Cut: chooser, Ship: sp.ship}
}

// Telemetry returns the cluster's metrics registry: every site's feeds,
// inference plane and the cluster's own planes (sync, failover, ingest)
// register their series there, labelled by site and feed. Snapshot it,
// diff it, or serve it on the debug endpoint.
func (c *Cluster) Telemetry() *Registry { return c.reg }

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

// Events returns the cluster-wide event stream: every feed's session
// publishes onto it directly, tagging each event with the Site that ran
// it. Closed when Run returns, once every site and every failover
// migration is done.
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
		err = fmt.Errorf("sieve: cluster: %w", err)
		for _, s := range c.sites {
			s.hub.abandon(err)
		}
		close(c.events)
		return err
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
	// survivors (which are typically still running) as soon as its
	// goroutine exits.
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

// runSite drives one edge site: run the hub (whose feeds do the site's
// cloud work through its hook), archive the encoded streams, and ship the
// end-of-run manifest; a site the sharder left empty only ships the
// manifest. A site killed by a scripted crash instead salvages its
// partial streams into the EdgeStore for replay and returns nil — the
// degraded markers and failover records carry the signal.
func (c *Cluster) runSite(ctx context.Context, s *clusterSite) error {
	var runErr error
	if len(s.feeds) > 0 {
		runErr = s.hub.Run(ctx)
	}

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

	errs := []error{runErr}
	for _, f := range s.feeds {
		// Archive completed streams in the site's edge store (failed feeds
		// have no finalised stream to retain).
		if f.sess.outcome() != nil {
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

// siteHook is the cloud work each event of a site's feeds implies:
// fault-script progress per encoded frame; per detection a shard record,
// an uplink ship and, every syncEvery of the site's detections, a delta
// flush; per final stats a stats ship. Every feed the site runs, adopted
// ones too, runs it before publishing the event, so a crash it fires stops
// that feed at the trigger frame. The detection work runs under s.mu: the
// shard, the ships and the flushes keep one total order whichever feed's
// goroutine runs them.
func (c *Cluster) siteHook(s *clusterSite) eventHook {
	return func(ctx context.Context, ev Event, ship *telemetry.Scope) {
		switch ev.Kind {
		case EventFrameEncoded:
			// Encode progress drives the fault script: frame counts are
			// the deterministic clock faults are anchored to.
			c.applyFaults(c.frunner.Observe(ev.Feed, ev.Frame+1))
		case EventDetection:
			s.mu.Lock()
			defer s.mu.Unlock()
			// The edge records locally and ships the tiny detection
			// record upstream — the frame payload never crosses the WAN.
			s.shard.Put(ev.Feed, ev.Frame, ev.Labels)
			sp := ship.Start(telemetry.StageShip, ev.Frame)
			_ = c.coord.ShipDetection(s.name, ev.Feed, ev.Labels) // fails only for a site the topology lacks
			sp.End()
			if s.synced++; s.synced >= c.cfg.syncEvery {
				s.synced = 0
				c.flushDeltas(ctx, s)
			}
		case EventStats:
			_ = c.coord.ShipStats(s.name) // likewise
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
	m, err := c.Merged()
	if err != nil {
		return nil, err
	}
	return m.Query(camera, class, from, to), nil
}

// Track materialises a camera's propagated per-frame labels from the
// merged view.
func (c *Cluster) Track(camera string, numFrames int) (LabelTrack, error) {
	m, err := c.Merged()
	if err != nil {
		return nil, err
	}
	return m.Track(camera, numFrames), nil
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
	// Counts are the cluster-wide totals: every session that ran, on the
	// site that ran it (a failed-over feed counts on both sites, up to the
	// crash and from its resume point).
	Counts
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
	// DeltaSyncs counts streaming shard-sync flushes that shipped a delta
	// or stalled on a partitioned uplink (a flush that found the replica
	// already caught up counts nothing); SyncRetries the extra tries
	// flushes spent on partitioned uplinks.
	DeltaSyncs, SyncRetries int64
	// Failovers records each migrated feed (see Failover).
	Failovers []Failover
	// Degraded lists sites whose slice of the merged view is incomplete or
	// stale, with reasons.
	Degraded []DegradedSite
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
		if p := s.hub.own.plane; p != nil {
			ss.Split = p.SplitStats()
		}
		c.mu.Lock()
		if s.err != nil {
			ss.Err = s.err.Error()
		}
		c.mu.Unlock()
		st.Sites = append(st.Sites, ss)
		st.Counts.Add(ss.Hub.Counts)
		st.Inference.Add(ss.Hub.Inference)
		st.Split.Add(ss.Split)
		st.UplinkBytes += ss.UplinkBytes
	}
	return st
}
