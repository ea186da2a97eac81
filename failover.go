package sieve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sieve/internal/container"
	"sieve/internal/faultplan"
	"sieve/internal/telemetry"
)

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
	counter := func(name, help string) *telemetry.Counter {
		reg.Describe(name, help)
		return reg.Counter(name)
	}
	return failoverCounters{
		crashes:    counter("sieve_cluster_crashes_total", "scripted site crashes fired"),
		recoveries: counter("sieve_cluster_recoveries_total", "crashed sites whose uplink recovered"),
		migrated:   counter("sieve_cluster_migrated_feeds_total", "feeds adopted by surviving sites after a crash"),
		lost:       counter("sieve_cluster_lost_feeds_total", "feeds no surviving site could adopt"),
		replayed:   counter("sieve_cluster_replayed_frames_total", "frames re-encoded by adoptive sites during failover"),
		deltaSyncs: counter("sieve_cluster_delta_syncs_total", "streaming shard-sync delta flushes"),
		retries:    counter("sieve_cluster_sync_retries_total", "extra delta-sync attempts spent on partitioned uplinks"),
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

// crashSite kills a site: cancels its context (its sessions stop at their
// next frame) and drops its uplink. The EdgeStore survives — a crash is
// not disk loss.
func (c *Cluster) crashSite(name string) {
	s := c.site(name)
	c.mu.Lock()
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
	s := c.site(name)
	c.mu.Lock()
	if s == nil || !s.crashed {
		c.mu.Unlock()
		return
	}
	s.crashed = false
	c.fstats.recoveries.Inc()
	c.mu.Unlock()
	if l, ok := c.topo.Uplink(name); ok {
		l.Heal()
	}
}

// handleCrash runs on the Run goroutine when a crashed site's goroutine
// exits: the fault plane has already told the cloud the site died
// (crashSite set its failover flag), so every feed of the dead site is
// re-sharded over the survivors. Target assignment is sequential in feed
// Add order so stateful sharders (round-robin) place deterministically;
// the migrations themselves run concurrently.
func (c *Cluster) handleCrash(ctx context.Context, dead *clusterSite, wg *sync.WaitGroup) {
	c.coord.MarkDegraded(dead.name, "crashed; feeds failing over")
	for _, f := range dead.feeds {
		target, err := c.assignFailover(f.name, dead)
		if err != nil {
			c.noteLostFeed(dead, f.name, err)
			continue
		}
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
	idx, err := c.cfg.sharder.Assign(name, loads)
	if err != nil {
		return nil, err
	}
	if idx < 0 || idx >= len(eligible) {
		return nil, fmt.Errorf("sharder %s placed feed %q on site %d of %d survivors",
			c.cfg.sharder.Name(), name, idx, len(eligible))
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
	if sk, ok := src.(interface{ Seek(int) error }); ok {
		if err := sk.Seek(base); err != nil {
			return fmt.Errorf("rewinding source to frame %d: %w", base, err)
		}
	} else {
		// Pin the salvaged stream so quota eviction on the dead site's
		// store cannot invalidate the open replay cursor.
		release, err := from.edge.Pin(f.name)
		if err != nil {
			return fmt.Errorf("no replayable stream: %w", err)
		}
		defer release()
		r, err := from.edge.Open(f.name)
		if err != nil {
			return err
		}
		rs, err := NewReplaySource(r)
		if err != nil {
			return err
		}
		if err := rs.Seek(base); err != nil {
			return err
		}
		src = rs
	}

	// The migrated session joins the adoptive site: its registry label, its
	// plane (the dead site's died with its hub) and its snapshot.
	sink := &container.Buffer{}
	sess, err := to.hub.adopt(src, append(f.opts[:len(f.opts):len(f.opts)],
		WithName(f.name), WithSink(sink), withFrameBase(base))...)
	if err != nil {
		return err
	}

	pumped := make(chan int, 1)
	go func() {
		// Ship errors are not the migration's to report: a partitioned
		// adoptive uplink shows as that site's degraded marker.
		replayed, _ := c.pump(ctx, to, sess.Events(), nil)
		pumped <- replayed
	}()
	runErr := sess.Run(ctx)
	replayed := <-pumped
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

// Failovers lists the feeds migrated off crashed sites, in completion
// order.
func (c *Cluster) Failovers() []Failover {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Failover(nil), c.failovers...)
}
