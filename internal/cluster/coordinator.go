package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sieve/internal/labels"
	"sieve/internal/simnet"
	"sieve/internal/store"
)

// Wire-size model for the uplink: what one shipped record costs in bytes.
// The numbers are a deterministic stand-in for a serialisation format —
// what matters for the Figure-5-style accounting is that detections are
// tiny next to frame payloads.
const (
	// detectionOverheadBytes covers the frame id, camera-name length
	// prefixes and record framing of one shipped detection.
	detectionOverheadBytes = 12
	// statsWireBytes is one shipped SessionStats snapshot.
	statsWireBytes = 48
	// reportOverheadBytes is the fixed header of a shard sync or delta.
	reportOverheadBytes = 64
)

// DetectionWireBytes models the uplink payload of one shipped detection
// record: camera name + canonical label set + framing.
func DetectionWireBytes(camera string, ls labels.Set) int64 {
	return int64(len(camera) + len(ls.Key()) + detectionOverheadBytes)
}

// DeltaWireBytes models the payload of one incremental shard delta: its
// entries at detection wire size plus the framing header carrying the
// cursor pair.
func DeltaWireBytes(d store.Delta) int64 {
	n := int64(reportOverheadBytes)
	for _, e := range d.Entries {
		n += DetectionWireBytes(e.Camera, e.Labels)
	}
	return n
}

// Report is the end-of-run manifest one edge site ships to the cloud when
// its feeds finish. Shard is the site's live shard, but only its Version
// crosses the uplink: the cursor the cloud's replica must reach for the
// site's slice of the merged view to be complete. The entries themselves
// cross as deltas (ShipDelta).
type Report struct {
	Site  string
	Shard *store.ResultsDB
}

// DegradedSite marks a site whose contribution to the merged view is
// incomplete or stale — the explicit alternative to silently short counts.
type DegradedSite struct {
	Site   string
	Reason string
}

// Coordinator is the cloud side of the cluster (the "results database" box
// of Figure 1, scaled out): it meters everything the edge sites ship over
// their uplinks, keeps a per-site replica built only from the deltas that
// crossed them, records each site's end-of-run manifest cursor and which
// sites' slices of the view are degraded, and merges the replicas into one
// conflict-checked global view. The cloud never reads an edge shard: what
// it serves is exactly what crossed the links.
type Coordinator struct {
	topo *Topology

	mu sync.Mutex
	// replicas are the cloud-side shadow shards, built exclusively from
	// ApplyDelta — each replica's Version is the site's sync cursor.
	replicas map[string]*store.ResultsDB
	// manifests holds the shard version each site's end-of-run manifest
	// carried.
	manifests map[string]int64
	degraded  map[string]string
}

// NewCoordinator builds a coordinator over the given star topology.
func NewCoordinator(topo *Topology) *Coordinator {
	return &Coordinator{
		topo:      topo,
		replicas:  make(map[string]*store.ResultsDB),
		manifests: make(map[string]int64),
		degraded:  make(map[string]string),
	}
}

func (c *Coordinator) uplink(site string) (*simnet.Link, error) {
	l, ok := c.topo.Uplink(site)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown site %q", site)
	}
	return l, nil
}

// Register declares a site the merged view is expected to cover by giving
// it an empty replica. MergeAll marks any site whose manifest never arrived
// as degraded instead of silently under-reporting.
func (c *Coordinator) Register(site string) { c.replica(site) }

// replica returns a site's replica, creating it empty on first use.
func (c *Coordinator) replica(site string) *store.ResultsDB {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.replicas[site]
	if !ok {
		r = store.NewResultsDB()
		c.replicas[site] = r
	}
	return r
}

// ShipDetection accounts one detection record crossing a site's uplink
// during the run (the streaming plane: I-frame results flow upstream as
// they are produced). While the uplink is partitioned the record is
// dropped — the reliable channel is the delta sync, which retries.
func (c *Coordinator) ShipDetection(site, camera string, ls labels.Set) error {
	l, err := c.uplink(site)
	if err != nil {
		return err
	}
	_, _ = l.TrySend(DetectionWireBytes(camera, ls))
	return nil
}

// ShipStats accounts one stats snapshot crossing a site's uplink (dropped,
// not queued, while the uplink is down).
func (c *Coordinator) ShipStats(site string) error {
	l, err := c.uplink(site)
	if err != nil {
		return err
	}
	_, _ = l.TrySend(statsWireBytes)
	return nil
}

// ShipActivation transfers one split-inference activation record of n
// bytes over the site's uplink. Unlike the detection stream it is NOT
// fire-and-forget: a partitioned uplink fails the ship
// (simnet.ErrLinkDown) so the caller can recompute the batch on the edge
// — faults cost time, never results.
func (c *Coordinator) ShipActivation(site string, n int64) error {
	l, err := c.uplink(site)
	if err != nil {
		return err
	}
	if _, err := l.TrySend(n); err != nil {
		return fmt.Errorf("cluster: activation ship %s: %w", site, err)
	}
	return nil
}

// SyncCursor returns the coordinator's replication cursor for a site: the
// version its next delta must start from.
func (c *Coordinator) SyncCursor(site string) int64 {
	c.mu.Lock()
	r, ok := c.replicas[site]
	c.mu.Unlock()
	if !ok {
		return 0
	}
	return r.Version()
}

// ShipDelta transfers one incremental shard delta over the site's uplink
// and applies it to the site's shadow replica. A partitioned uplink fails
// the ship (simnet.ErrLinkDown) without applying anything — the site
// retries from its unchanged cursor. Duplicate and overlapping
// retransmissions are absorbed idempotently by the replica.
func (c *Coordinator) ShipDelta(site string, d store.Delta) error {
	l, err := c.uplink(site)
	if err != nil {
		return err
	}
	if _, err := l.TrySend(DeltaWireBytes(d)); err != nil {
		return fmt.Errorf("cluster: delta sync %s: %w", site, err)
	}
	if err := c.replica(site).ApplyDelta(d); err != nil {
		return fmt.Errorf("cluster: delta sync %s: %w", site, err)
	}
	return nil
}

// MarkDegraded records that a site's contribution to the merged view is
// incomplete or stale. Later marks for the same site overwrite earlier
// ones (the freshest reason wins).
func (c *Coordinator) MarkDegraded(site, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.degraded[site] = reason
}

// ClearDegraded removes a site's degraded marker (its link healed and the
// backlog flushed).
func (c *Coordinator) ClearDegraded(site string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.degraded, site)
}

// Degraded returns the degraded-site markers sorted by site name. A
// non-empty result means counts derived from the merged view are lower
// bounds, not totals.
func (c *Coordinator) Degraded() []DegradedSite {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]DegradedSite, 0, len(c.degraded))
	for s, r := range c.degraded {
		out = append(out, DegradedSite{Site: s, Reason: r})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// AppliedFrame returns the highest frame ID the cloud replicas hold for a
// camera across every site (-1 when none) — the applied cursor the
// failover controller feeds to EdgeStore.ResumePoint when migrating the
// camera's feed.
func (c *Coordinator) AppliedFrame(camera string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	max := -1
	for _, r := range c.replicas {
		if m := r.MaxFrame(camera); m > max {
			max = m
		}
	}
	return max
}

// View merges the current shadow replicas into a fresh snapshot — the
// continuously queryable mid-run view. Under partition a site's replica is
// stale but never torn: deltas apply atomically, so the view lags by whole
// deltas. Conflicts across replicas surface as errors exactly as in
// MergeAll.
func (c *Coordinator) View() (*store.ResultsDB, error) {
	view, _, err := c.mergeReplicas()
	return view, err
}

// mergeReplicas folds every replica into a fresh ResultsDB in sorted site
// order, so the outcome (and any reported conflict) never depends on
// delivery scheduling. It returns each site's cursor at the time its
// replica was read; on a conflict the view built so far is discarded and
// the error names the offending site and (camera, frame).
func (c *Coordinator) mergeReplicas() (*store.ResultsDB, map[string]int64, error) {
	c.mu.Lock()
	sites := make([]string, 0, len(c.replicas))
	reps := make(map[string]*store.ResultsDB, len(c.replicas))
	for s, r := range c.replicas {
		sites = append(sites, s)
		reps[s] = r
	}
	c.mu.Unlock()
	sort.Strings(sites)
	view := store.NewResultsDB()
	cursors := make(map[string]int64, len(sites))
	for _, s := range sites {
		cursors[s] = reps[s].Version()
		if err := view.Merge(reps[s]); err != nil {
			return nil, nil, fmt.Errorf("cluster: merging replica of site %s: %w", s, err)
		}
	}
	return view, cursors, nil
}

// Submit records a site's end-of-run manifest, accounting its header on
// the site's uplink. The manifest carries only rep.Shard's version: the
// entries have already crossed as deltas, and MergeAll checks the site's
// replica against this cursor. Each site may submit once; a partitioned
// uplink fails the submit, leaving the site to be marked degraded.
func (c *Coordinator) Submit(rep Report) error {
	l, err := c.uplink(rep.Site)
	if err != nil {
		return err
	}
	if rep.Shard == nil {
		return fmt.Errorf("cluster: site %q submitted a nil shard", rep.Site)
	}
	if c.Submitted(rep.Site) {
		return fmt.Errorf("cluster: site %q submitted twice", rep.Site)
	}
	cursor := rep.Shard.Version()
	if _, err := l.TrySend(reportOverheadBytes); err != nil {
		return fmt.Errorf("cluster: submit %s: %w", rep.Site, err)
	}
	c.replica(rep.Site)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.manifests[rep.Site] = cursor
	return nil
}

// Submitted reports whether a site's end-of-run manifest has arrived.
func (c *Coordinator) Submitted(site string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.manifests[site]
	return ok
}

// MergeAll merges every site's replica into a fresh global ResultsDB, by
// the same sorted-site fold as View. A site whose manifest never arrived
// (it crashed, or its uplink stayed partitioned), or whose replica is
// behind the cursor its manifest carried, gains an explicit degraded
// marker appended to any reason the run already recorded — the merged view
// is stale-but-consistent, never silently short without saying so, and a
// crashed site still says it crashed.
func (c *Coordinator) MergeAll() (*store.ResultsDB, error) {
	merged, cursors, err := c.mergeReplicas()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for s, cursor := range cursors {
		if m, ok := c.manifests[s]; !ok || cursor < m {
			c.degraded[s] = withStaleNote(c.degraded[s], cursor)
		}
	}
	return merged, nil
}

// staleNote is MergeAll's degraded reason for a site whose replica falls
// short of its manifest.
const staleNote = "no final report; merged streamed replica at cursor "

// withStaleNote appends MergeAll's note to a site's existing degraded
// reason, so the cause recorded during the run (a crash, a partition)
// survives the merge. A note from an earlier MergeAll is replaced, not
// repeated.
func withStaleNote(reason string, cursor int64) string {
	if i := strings.Index(reason, staleNote); i >= 0 {
		reason = strings.TrimSuffix(reason[:i], "; ")
	}
	note := fmt.Sprintf("%s%d", staleNote, cursor)
	if reason == "" {
		return note
	}
	return reason + "; " + note
}

// UplinkStats reports a site's uplink meter: bytes, transfer count, and
// accumulated (virtual) busy time.
func (c *Coordinator) UplinkStats(site string) (bytes, transfers int64, busy time.Duration, err error) {
	l, lerr := c.uplink(site)
	if lerr != nil {
		return 0, 0, 0, lerr
	}
	bytes, transfers, busy = l.Stats()
	return bytes, transfers, busy, nil
}
