package sieve

import (
	"context"
	"fmt"
	"time"

	"sieve/internal/cluster"
	"sieve/internal/retry"
)

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
func (c *Cluster) reconcile(ctx context.Context) {
	for _, s := range c.sites {
		c.mu.Lock()
		submitted, down := s.submitted, s.crashed
		c.mu.Unlock()
		if submitted || down {
			// A still-crashed site's uplink is gone; MergeAll will fall back
			// to its streamed replica and mark it degraded.
			continue
		}
		// A failed retry is not a run error: the site stays marked
		// degraded.
		_ = c.submit(ctx, s)
	}
}

// submit flushes a site's trailing delta so the cloud replica is
// complete, then ships the end-of-run report carrying the authoritative
// shard. A delivered report clears the site's degraded marker: its slice
// of the merged view is no longer stale.
func (c *Cluster) submit(ctx context.Context, s *clusterSite) error {
	c.flushDeltas(ctx, s)
	st := s.hub.Snapshot()
	if err := c.coord.Submit(cluster.Report{
		Site:         s.name,
		Shard:        s.shard,
		Frames:       st.Frames,
		IFrames:      st.IFrames,
		Detections:   st.Detections,
		PayloadBytes: st.PayloadBytes,
	}); err != nil {
		return err
	}
	c.mu.Lock()
	s.submitted = true
	c.mu.Unlock()
	c.coord.ClearDegraded(s.name)
	return nil
}
