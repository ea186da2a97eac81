package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"sieve"
	"sieve/internal/telemetry"
)

// edgeConfig is the deployment a closed-loop cluster workload runs.
type edgeConfig struct {
	sites, workers, batch int
	split                 bool
	cut                   int
	uplinkBps             float64
	latency               time.Duration
	syncEvery             int
	feeds, frames, gop    int
}

func edgeConfigOf(workload string, sz sizes) edgeConfig {
	if workload == edgeQuiet {
		// One site, the paper's 30 Mbps / 20 ms WAN, default delta sync.
		return edgeConfig{sites: 1, workers: 2, batch: 4, uplinkBps: 30e6, latency: 20 * time.Millisecond,
			syncEvery: 8, feeds: sz.quietFeeds, frames: sz.quietFrames, gop: sz.quietGOP}
	}
	return edgeConfig{sites: 2, workers: 1, batch: 4, split: true, cut: 4,
		uplinkBps: 200e6, latency: 20 * time.Millisecond, syncEvery: 4,
		feeds: sz.busyFeeds, frames: sz.busyFrames, gop: sz.busyGOP}
}

func (c edgeConfig) siteNames() []string {
	names := make([]string, c.sites)
	for i := range names {
		names[i] = fmt.Sprintf("site%d", i)
	}
	return names
}

func feedName(i int) string { return fmt.Sprintf("cam%d", i) }

// edgePass is what one Cluster.Run through Merged() yields.
type edgePass struct {
	cost
	stats     sieve.ClusterStats
	frameLat  []float64 // ms, source hand-over -> EventFrameEncoded observed
	detectLat []float64 // ms, source hand-over -> EventDetection observed
	lateOver  int       // frames encoded after the deadline
	viewLag   []float64
	stageNs   map[telemetry.Stage]float64 // traced passes: the system's own stage spans, summed
	mergedDB  []byte
	streams   map[string][32]byte
	problems  []string
	failed    int
}

// runEdgePass builds the cluster, runs it closed-loop (a site pulls a
// feed's next frame only after the previous one is through) and reads the
// merged view. The timed region is Cluster.Run through Merged().
func runEdgePass(e *env, cfg edgeConfig, frames int, traced bool) (*edgePass, error) {
	p := &edgePass{}
	base := liveHeap()
	opts := []sieve.ClusterOption{
		sieve.WithSharder(sieve.ShardRoundRobin()),
		sieve.WithSiteWorkers(cfg.workers),
		sieve.WithUplink(cfg.uplinkBps, cfg.latency),
		sieve.WithDeltaSync(cfg.syncEvery, 4),
	}
	if cfg.split {
		opts = append(opts, sieve.WithSplitInference(e.det, cfg.batch, cfg.cut))
	} else {
		opts = append(opts, sieve.WithClusterInference(e.det, cfg.batch))
	}
	var tracer *sieve.Tracer
	if traced {
		tracer = sieve.NewTracer(nil) // wall clock: a real profile
		opts = append(opts, sieve.WithClusterTrace(tracer))
	}
	c, err := sieve.NewCluster(cfg.sites, opts...)
	if err != nil {
		return nil, err
	}
	watch := newStopwatch()
	params := e.sc.params(cfg.gop)
	srcs := make(map[string]*clipSource, cfg.feeds)
	siteOf := make(map[string]string, cfg.feeds)
	for i := 0; i < cfg.feeds; i++ {
		src := newClipSource(e.sc, feedName(i), e.sc.feedOffset(i, cfg.feeds), frames, watch)
		_, site, err := c.AddFeed(src.name, src, sieve.WithTunedParams(params))
		if err != nil {
			return nil, err
		}
		srcs[src.name], siteOf[src.name] = src, site
	}

	encoded := make(map[string]int, cfg.feeds)
	p.frameLat = make([]float64, 0, cfg.feeds*frames)
	p.detectLat = make([]float64, 0, cfg.feeds*frames/cfg.gop+cfg.feeds)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range c.Events() {
			src := srcs[ev.Feed]
			if src == nil || ev.Frame < 0 || ev.Frame >= len(src.handed) {
				continue
			}
			switch ev.Kind {
			case sieve.EventFrameEncoded:
				lat := watch.now() - src.handed[ev.Frame]
				p.frameLat = append(p.frameLat, ms(lat))
				if lat > int64(batchDeadline) {
					p.lateOver++
				}
				encoded[ev.Feed]++
				// Traced run only: how far the cloud's queryable view trails
				// the camera, polled from outside on every tenth frame.
				if traced && ev.Feed == feedName(0) && ev.Frame%10 == 9 {
					if v, err := c.View(); err == nil {
						p.viewLag = append(p.viewLag, float64(ev.Frame-v.MaxFrame(ev.Feed)))
					}
				}
			case sieve.EventDetection:
				p.detectLat = append(p.detectLat, ms(watch.now()-src.handed[ev.Frame]))
			}
		}
	}()

	p.m.begin()
	runErr := c.Run(context.Background())
	<-done
	merged, mergeErr := c.Merged()
	p.m.end()
	p.retained = retainedMB(base)
	if runErr != nil {
		return nil, fmt.Errorf("cluster run: %w", runErr)
	}
	if mergeErr != nil {
		return nil, mergeErr
	}

	p.stats = c.Snapshot()
	p.frames = p.stats.Frames
	if tracer != nil {
		p.stageNs = stageTotals(tracer.Spans())
	}
	if p.mergedDB, err = merged.MarshalIndent(); err != nil {
		return nil, err
	}
	p.streams = make(map[string][32]byte, cfg.feeds)
	for i := 0; i < cfg.feeds; i++ {
		name := feedName(i)
		es, err := c.EdgeStore(siteOf[name])
		if err != nil {
			return nil, err
		}
		r, err := es.Open(name)
		if err != nil {
			p.problems = append(p.problems, fmt.Sprintf("%s: archived stream missing: %v", name, err))
			continue // counted as a mismatch by checkEdgePass
		}
		p.streams[name] = digest(r)
	}
	for i := 0; i < cfg.feeds; i++ {
		if name := feedName(i); encoded[name] != frames {
			p.problems = append(p.problems, fmt.Sprintf("%s: %d of %d frames encoded", name, encoded[name], frames))
			p.failed += frames - encoded[name]
		}
	}
	if d := p.stats.IFrames - p.stats.Detections; d != 0 {
		p.problems = append(p.problems, fmt.Sprintf("%d I-frames without a detection", d))
		p.failed += d
	}
	runtime.KeepAlive(c)
	return p, nil
}

// replayConfig mirrors the deployment for the layer replay. The forward
// batch is what the plane can actually fill: a site runs `workers` feeds at
// a time and flushes as soon as all of them wait, so batches never exceed
// the worker count.
func (cfg edgeConfig) replayConfig(e *env) replayConfig {
	rc := replayConfig{
		params: e.sc.params(cfg.gop), fps: e.sc.fps, det: e.det,
		batch: cfg.workers, split: cfg.split, cut: cfg.cut,
		sites: cfg.siteNames(), uplinkBps: cfg.uplinkBps, latency: cfg.latency, syncEvery: cfg.syncEvery,
	}
	if rc.batch > cfg.batch {
		rc.batch = cfg.batch
	}
	return rc
}

func (cfg edgeConfig) replayFeeds(e *env, frames int) []replayFeed {
	names := cfg.siteNames()
	feeds := make([]replayFeed, cfg.feeds)
	for i := range feeds {
		// ShardRoundRobin places feed i on site i mod K.
		feeds[i] = replayFeed{name: feedName(i), site: names[i%cfg.sites],
			frames: e.sc.feedFrames(e.sc.feedOffset(i, cfg.feeds), frames)}
	}
	return feeds
}

// checkEdgePass compares a pass's outputs with the replay's, byte for byte:
// the merged ResultsDB and every archived SVF stream. It returns the
// number of outputs checked.
func checkEdgePass(p *edgePass, ref *replayResult) (checked int) {
	checked = 1 + len(ref.streams)
	if !bytes.Equal(p.mergedDB, ref.dbJSON) {
		p.problems = append(p.problems, "merged ResultsDB differs from the replay's")
		p.failed++
	}
	for _, name := range differingStreams(p.streams, ref.streams) {
		p.problems = append(p.problems, fmt.Sprintf("%s: archived stream differs from the replay's", name))
		p.failed++
	}
	return checked
}
