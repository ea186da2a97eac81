package sieve

import (
	"context"
	"errors"
	"fmt"

	"sieve/internal/cluster"
)

// flushDeltas ships the shard entries the cloud replica has not applied
// yet, trying a partitioned uplink up to syncAttempts times in a row and
// checking ctx before each try. The uplinks are simulated, so there is
// nothing to wait for between tries: exhaustion is instant and identical
// every run. Exhaustion marks the site degraded; the next successful flush
// clears the marker. A flush counts as a delta sync when it shipped a
// delta or exhausted its attempts; one that makes no attempt (ctx already
// done) counts nothing and leaves the markers alone, and so does one whose
// try finds the replica already caught up. The caller holds s.mu, which
// orders a site's flushes with its shard records (see siteHook).
func (c *Cluster) flushDeltas(ctx context.Context, s *clusterSite) {
	if c.coord.SyncCursor(s.name) == s.shard.Version() {
		return
	}
	attempts := 0
	shipped := false
	var err error
	for attempts < c.cfg.syncAttempts {
		if cerr := ctx.Err(); cerr != nil {
			err = errors.Join(cerr, err)
			break
		}
		attempts++
		if shipped, err = c.shipDelta(s); err == nil {
			break
		}
	}
	if attempts == 0 {
		return
	}
	if shipped || err != nil {
		c.fstats.deltaSyncs.Inc()
	}
	c.fstats.retries.Add(int64(attempts - 1))
	if err != nil {
		c.coord.MarkDegraded(s.name, fmt.Sprintf("delta sync stalled at cursor %d after %d attempts: %v",
			c.coord.SyncCursor(s.name), attempts, err))
	} else {
		c.coord.ClearDegraded(s.name)
	}
}

// shipDelta is one delta-sync try: everything past the replica's cursor.
// It reports whether a delta crossed the uplink: none does when the
// replica has already caught up.
func (c *Cluster) shipDelta(s *clusterSite) (shipped bool, err error) {
	d, err := s.shard.DeltaSince(c.coord.SyncCursor(s.name))
	if err != nil || d.From == d.To {
		return false, err
	}
	err = c.coord.ShipDelta(s.name, d)
	return err == nil, err
}

// reconcile is the pre-merge sweep over every live site: one more delta
// flush for a site whose replica is behind its shard (a migrated feed
// recorded into it after its manifest, or its last flush hit a
// partition), and one more submit for a site with no manifest, so a site
// whose uplink healed after its goroutine finished (linkup or recovery
// late in the script) still reaches the merged view complete instead of
// stale. Sites still partitioned fail here too and keep their degraded
// markers.
func (c *Cluster) reconcile(ctx context.Context) {
	for _, s := range c.sites {
		c.mu.Lock()
		down := s.crashed
		c.mu.Unlock()
		if down {
			// A still-crashed site's uplink is gone; MergeAll marks its
			// replica stale.
			continue
		}
		if c.coord.Submitted(s.name) {
			s.mu.Lock()
			c.flushDeltas(ctx, s)
			s.mu.Unlock()
			continue
		}
		// A failed retry is not a run error: the site stays marked
		// degraded.
		_ = c.submit(ctx, s)
	}
}

// submit flushes a site's trailing delta so the cloud replica is
// complete, then ships the end-of-run manifest carrying the shard's
// cursor. A delivered manifest clears the site's degraded marker: its
// slice of the merged view is no longer stale.
func (c *Cluster) submit(ctx context.Context, s *clusterSite) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.flushDeltas(ctx, s)
	if err := c.coord.Submit(cluster.Report{Site: s.name, Shard: s.shard}); err != nil {
		return err
	}
	c.coord.ClearDegraded(s.name)
	return nil
}
