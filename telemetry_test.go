package sieve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"sieve/internal/telemetry"
	"sieve/internal/telemetry/debughttp"
)

// testTracer returns a tracer on its own VirtualClock. The clock is never
// advanced, so every span lands at the epoch — which is exactly what the
// determinism tests want: the export order is the canonical span sort, not
// goroutine interleaving.
func testTracer() *Tracer { return NewTracer(testClock()) }

// runTracedClusterJSON is runClusterJSON plus a tracer, returning the
// merged-DB JSON, the exported Chrome trace JSON, the cluster and its
// registry.
func runTracedClusterJSON(t *testing.T, opts ...ClusterOption) ([]byte, []byte, *Cluster, *Registry) {
	t.Helper()
	tr := testTracer()
	opts = append([]ClusterOption{WithClusterTrace(tr)}, opts...)
	db, c := runClusterJSON(t, opts...)
	var trace bytes.Buffer
	if err := tr.WriteChrome(&trace); err != nil {
		t.Fatal(err)
	}
	return db, trace.Bytes(), c, c.Telemetry()
}

// checkRegistryCounts fails unless st's counts equal the sums of the
// per-feed sieve_*_total series in snap.
func checkRegistryCounts(t *testing.T, run string, st ClusterStats, snap MetricsSnapshot) {
	t.Helper()
	for _, c := range []struct {
		family string
		want   int64
	}{
		{"sieve_frames_total", int64(st.Frames)},
		{"sieve_iframes_total", int64(st.IFrames)},
		{"sieve_detections_total", int64(st.Detections)},
		{"sieve_payload_bytes_total", st.PayloadBytes},
	} {
		var got int64
		for _, cp := range snap.Counters {
			if strings.HasPrefix(cp.Key, c.family+"{") {
				got += cp.Value
			}
		}
		if got != c.want {
			t.Fatalf("%s: %s = %d, ClusterStats says %d", run, c.family, got, c.want)
		}
	}
}

// TestClusterTelemetryEquivalence pins the observability plane's prime
// invariant: attaching a tracer and reading the registry never change what
// is computed — the merged ResultsDB JSON is byte-identical tracer-on vs
// tracer-off — and the registry view agrees with the ClusterStats
// snapshot, after a failover too.
func TestClusterTelemetryEquivalence(t *testing.T) {
	on, trace, c, reg := runTracedClusterJSON(t)
	off, _ := runClusterJSON(t)
	if !bytes.Equal(on, off) {
		t.Fatalf("merged ResultsDB differs telemetry-on vs off:\non:\n%s\noff:\n%s", on, off)
	}

	st := c.Snapshot()
	snap := reg.Snapshot()
	checkRegistryCounts(t, "fault-free run", st, snap)
	if got := snap.Counter("sieve_cluster_delta_syncs_total"); got != st.DeltaSyncs {
		t.Fatalf("sieve_cluster_delta_syncs_total = %d, ClusterStats.DeltaSyncs = %d", got, st.DeltaSyncs)
	}
	// The histogram accounted every encoded frame.
	var hCount int64
	for _, hp := range snap.Histograms {
		if strings.HasPrefix(hp.Key, "sieve_frame_bytes{") {
			hCount += hp.Count
		}
	}
	if int(hCount) != st.Frames {
		t.Fatalf("sieve_frame_bytes observations = %d, want %d frames", hCount, st.Frames)
	}
	// The sampled gauges collected per-site storage.
	var stored int64
	for _, gp := range snap.Gauges {
		if strings.HasPrefix(gp.Key, "sieve_cluster_edge_store_bytes{") {
			stored += gp.Value
		}
	}
	var want int64
	for _, ss := range st.Sites {
		want += ss.StoredBytes
	}
	if stored != want {
		t.Fatalf("edge store gauges sum to %d, SiteStats say %d", stored, want)
	}

	summary, err := SummarizeChromeTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	if summary.Events == 0 {
		t.Fatal("trace has no span events")
	}
	stages := make(map[string]int)
	for _, sc := range summary.Stages {
		stages[sc.Stage] = sc.Count
	}
	if stages["pull"] == 0 || stages["encode"] == 0 || stages["infer"] == 0 || stages["ship"] == 0 {
		t.Fatalf("missing pipeline stages in trace: %v", stages)
	}
	if stages["merge"] != 1 {
		t.Fatalf("merge spans = %d, want exactly 1", stages["merge"])
	}
	if stages["encode"] != st.Frames {
		t.Fatalf("encode spans = %d, want one per frame (%d)", stages["encode"], st.Frames)
	}
	if stages["filter"] != st.IFrames {
		t.Fatalf("filter spans = %d, want one per I-frame (%d)", stages["filter"], st.IFrames)
	}

	// After a crash the three views still agree: the adopted feed counts on
	// its adoptive site, so ClusterStats folds every session that ran, as
	// the registry does, and its Detections are the ones the stream
	// delivered.
	plan, err := ParseFaultPlan("crash:site1:cam-south@6")
	if err != nil {
		t.Fatal(err)
	}
	_, fc, events := runFleet(t, nil, WithClusterInference(trainedTestDetector(t), 4), WithFaultPlan(plan))
	fst := fc.Snapshot()
	if fst.MigratedFeeds != 1 {
		t.Fatalf("crash run migrated %d feeds, want 1", fst.MigratedFeeds)
	}
	checkRegistryCounts(t, "crash run", fst, fc.Telemetry().Snapshot())
	delivered := 0
	for _, ev := range events {
		if ev.Kind == EventDetection {
			delivered++
		}
	}
	if delivered != fst.Detections {
		t.Fatalf("crash run: stream delivered %d detections, ClusterStats.Detections = %d", delivered, fst.Detections)
	}
}

// TestClusterTraceDeterminism is the tracing acceptance bar: two identical
// VirtualClock cluster runs export byte-identical Chrome trace JSON.
func TestClusterTraceDeterminism(t *testing.T) {
	_, a, _, _ := runTracedClusterJSON(t)
	_, b, _, _ := runTracedClusterJSON(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("trace JSON differs between identical runs:\n%s\nvs\n%s", a, b)
	}
}

// TestClusterFailoverTraceDeterminism extends the bar to scripted faults:
// a crash drops the dead site's span buffer (how far the dying site limped
// past its trigger is scheduling noise), so even a failover run's trace is
// byte-identical across repeats and mentions no crashed site.
func TestClusterFailoverTraceDeterminism(t *testing.T) {
	plan, err := ParseFaultPlan("crash:site1:cam-south@6")
	if err != nil {
		t.Fatal(err)
	}
	_, a, _, _ := runTracedClusterJSON(t, WithFaultPlan(plan))
	_, b, _, _ := runTracedClusterJSON(t, WithFaultPlan(plan))
	if !bytes.Equal(a, b) {
		t.Fatalf("failover trace JSON differs between identical runs:\n%s\nvs\n%s", a, b)
	}
	summary, err := SummarizeChromeTrace(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range summary.Sites {
		if site == "site1" {
			t.Fatalf("crashed site1 still present in trace sites %v", summary.Sites)
		}
	}
	if summary.Events == 0 {
		t.Fatal("failover trace has no span events")
	}
}

// TestClusterSnapshotConcurrentMidRun hammers ClusterStats, HubStats and
// registry snapshots from several goroutines while the run is in flight,
// with and without a crash (a site hub adopting a feed mid-run). Under
// -race this is the regression net for torn stats reads; the monotonicity
// check catches counters that go backwards mid-run.
func TestClusterSnapshotConcurrentMidRun(t *testing.T) {
	crash, err := ParseFaultPlan("crash:site1:cam-south@6")
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*FaultPlan{nil, crash} {
		snapshotConcurrentMidRun(t, plan)
	}
}

func snapshotConcurrentMidRun(t *testing.T, plan *FaultPlan) {
	c, err := NewCluster(3, WithSharder(ShardRoundRobin()), WithSiteWorkers(2), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	for _, cam := range clusterCameras {
		if _, _, err := c.AddFeed(cam.name, NewSynthSource(clusterScene(t, cam.seed, cam.enter)), feedOpts(t)...); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var snapshots sync.WaitGroup
	errc := make(chan error, 4)
	for i := 0; i < 4; i++ {
		snapshots.Add(1)
		go func() {
			defer snapshots.Done()
			prev := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := c.Snapshot()
				if st.Frames < prev {
					select {
					case errc <- fmt.Errorf("ClusterStats.Frames went backwards: %d after %d", st.Frames, prev):
					default:
					}
					return
				}
				prev = st.Frames
				_ = c.Telemetry().Snapshot()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range c.Events() {
		}
	}()
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
	close(stop)
	snapshots.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	st := c.Snapshot()
	if st.Frames == 0 || st.Detections == 0 {
		t.Fatalf("final snapshot empty: %d frames, %d detections", st.Frames, st.Detections)
	}
}

// TestDebugEndpointScrapesMidRun runs a cluster with the debug surface
// attached and scrapes /metrics while the run is in flight: the exposition
// must parse, and a post-run scrape must agree with the final snapshot.
func TestDebugEndpointScrapesMidRun(t *testing.T) {
	c, err := NewCluster(3, WithSharder(ShardRoundRobin()), WithSiteWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	reg := c.Telemetry()
	for _, cam := range clusterCameras {
		if _, _, err := c.AddFeed(cam.name, NewSynthSource(clusterScene(t, cam.seed, cam.enter)), feedOpts(t)...); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := debughttp.Start("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	scrape := func() (map[string]float64, error) {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			return nil, fmt.Errorf("GET /metrics: %s: %s", resp.Status, body)
		}
		return telemetry.ParseExposition(resp.Body)
	}

	var midErr error
	midScrapes := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range c.Events() {
			if ev.Kind != EventDetection || midErr != nil {
				continue
			}
			if _, err := scrape(); err != nil {
				midErr = err
				continue
			}
			midScrapes++
		}
	}()
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
	if midErr != nil {
		t.Fatalf("mid-run scrape: %v", midErr)
	}
	if midScrapes == 0 {
		t.Fatal("no successful mid-run scrapes")
	}

	final, err := scrape()
	if err != nil {
		t.Fatal(err)
	}
	st := c.Snapshot()
	var frames float64
	for key, v := range final {
		if strings.HasPrefix(key, "sieve_frames_total{") {
			frames += v
		}
	}
	if int(frames) != st.Frames {
		t.Fatalf("scraped sieve_frames_total = %v, ClusterStats.Frames = %d", frames, st.Frames)
	}
}

// TestSessionTelemetryStandalone covers the non-cluster paths: a lone
// session records into its private registry the same counts its
// SessionStats report, and EventStats snapshots stay exact (the session
// goroutine is the only writer of its counters); a one-feed Hub traced
// with WithHubTrace hands its tracer to the feed, whose spans are the
// trace's only feed.
func TestSessionTelemetryStandalone(t *testing.T) {
	det := trainedTestDetector(t)
	sess, err := NewSession(NewSynthSource(clusterScene(t, 21, 3)), WithName("solo"), WithClock(testClock()),
		WithDetector(det))
	if err != nil {
		t.Fatal(err)
	}
	reg := sess.Telemetry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sess.Events() {
		}
	}()
	if err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
	st := sess.Stats()
	snap := reg.Snapshot()
	if got := snap.Counter(`sieve_frames_total{feed="solo"}`); int(got) != st.Frames {
		t.Fatalf("registry frames = %d, SessionStats.Frames = %d", got, st.Frames)
	}
	if got := snap.Counter(`sieve_iframes_total{feed="solo"}`); int(got) != st.IFrames {
		t.Fatalf("registry iframes = %d, SessionStats.IFrames = %d", got, st.IFrames)
	}

	tr := testTracer()
	hub := NewHub(WithHubTrace(tr))
	if _, err := hub.Add("solo", NewSynthSource(clusterScene(t, 21, 3)), WithClock(testClock()),
		WithDetector(det)); err != nil {
		t.Fatal(err)
	}
	go func() {
		for range hub.Events() {
		}
	}()
	if err := hub.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	summary, err := SummarizeChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(summary.Feeds) != 1 || summary.Feeds[0] != "solo" {
		t.Fatalf("trace feeds = %v, want [solo]", summary.Feeds)
	}
}

// wireOwner is what a fleet can be pushed into: a Hub or a Cluster with a
// listener attached.
type wireOwner interface {
	Events() <-chan Event
	Run(ctx context.Context) error
}

// pushFleet runs owner while the acceptance fleet pushes itself over ln,
// and returns once the run and every pusher have finished.
func pushFleet(t *testing.T, owner wireOwner, ln *MemListener) {
	t.Helper()
	go func() {
		for range owner.Events() {
		}
	}()
	errc := make(chan error, 1)
	go func() { errc <- owner.Run(context.Background()) }()
	pushErrs := make(chan error, len(clusterCameras))
	for _, cam := range clusterCameras {
		// Rendered here: t.Fatal is off limits on the pusher goroutines.
		src := NewSynthSource(clusterScene(t, cam.seed, cam.enter))
		go func() {
			conn, err := ln.Dial()
			if err != nil {
				pushErrs <- err
				return
			}
			pushErrs <- NewPusher(src, WithPusherName(cam.name)).Run(context.Background(), conn)
		}()
	}
	for range clusterCameras {
		if err := <-pushErrs; err != nil {
			t.Fatalf("pusher: %v", err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// fleetListener is an ingest listener over a fresh MemListener admitting
// the acceptance fleet, its sessions on the deterministic test clock.
func fleetListener() (*IngestListener, *MemListener) {
	ln := NewMemListener()
	return NewIngestListener(ln,
		WithExpectedFeeds(len(clusterCameras)),
		WithIngestSession(func(string, SourceInfo) []SessionOption {
			return []SessionOption{WithClock(testClock())}
		}),
	), ln
}

// runRegistryHub runs the fleet over the wire into a hub with a shared
// inference plane.
func runRegistryHub(t *testing.T) *Hub {
	lst, ln := fleetListener()
	hub := NewHub(WithWorkers(3), WithHubInference(trainedTestDetector(t), 2), WithListener(lst))
	pushFleet(t, hub, ln)
	return hub
}

// runRegistryCluster runs the fleet over the wire into a K=3 cluster whose
// site planes split every batch after layer 1. Feeds are placed by name
// hash, so the series set does not depend on the order they were admitted.
func runRegistryCluster(t *testing.T) *Cluster {
	lst, ln := fleetListener()
	c, err := NewCluster(3, WithSiteWorkers(2),
		WithSplitInference(trainedTestDetector(t), 2, 1), WithClusterListener(lst))
	if err != nil {
		t.Fatal(err)
	}
	pushFleet(t, c, ln)
	return c
}

// TestOwnerRegistryHoldsPlaneSeries: the inference plane, its split state
// and the ingest listener register their instruments in their owner's
// registry, so a hub's or cluster's Telemetry() carries them, each series
// equal to the Stats view over it.
func TestOwnerRegistryHoldsPlaneSeries(t *testing.T) {
	type series struct {
		key  string
		want int64
	}
	check := func(t *testing.T, reg *Registry, want []series) {
		t.Helper()
		snap := reg.Snapshot()
		values := make(map[string]int64)
		for _, cp := range snap.Counters {
			values[cp.Key] = cp.Value
		}
		for _, gp := range snap.Gauges {
			values[gp.Key] = gp.Value
		}
		for _, s := range want {
			got, ok := values[s.key]
			if !ok {
				t.Fatalf("registry has no series %s", s.key)
			}
			if got != s.want {
				t.Fatalf("%s = %d, Stats view says %d", s.key, got, s.want)
			}
		}
	}

	t.Run("hub", func(t *testing.T) {
		hub := runRegistryHub(t)
		st := hub.Snapshot()
		if st.Inference.Frames == 0 || st.Ingest.FramesReceived == 0 {
			t.Fatalf("hub run inferred %d frames and received %d", st.Inference.Frames, st.Ingest.FramesReceived)
		}
		check(t, hub.Telemetry(), []series{
			{"sieve_infer_frames_total", st.Inference.Frames},
			{"sieve_infer_batches_total", st.Inference.Batches},
			{"sieve_infer_max_batch", int64(st.Inference.MaxBatch)},
			{"sieve_ingest_frames_received_total", st.Ingest.FramesReceived},
			{"sieve_ingest_feeds_admitted_total", int64(st.Ingest.FeedsAdmitted)},
			{"sieve_ingest_acks_sent_total", st.Ingest.AcksSent},
		})
	})

	t.Run("cluster", func(t *testing.T) {
		c := runRegistryCluster(t)
		st := c.Snapshot()
		if st.Split.SplitBatches == 0 || st.Ingest.FramesReceived == 0 {
			t.Fatalf("cluster run split %d batches and received %d frames", st.Split.SplitBatches, st.Ingest.FramesReceived)
		}
		want := []series{
			{"sieve_ingest_frames_received_total", st.Ingest.FramesReceived},
			{"sieve_ingest_feeds_admitted_total", int64(st.Ingest.FeedsAdmitted)},
			{"sieve_ingest_acks_sent_total", st.Ingest.AcksSent},
		}
		for _, ss := range st.Sites {
			site := fmt.Sprintf("{site=%q}", ss.Site)
			want = append(want,
				series{"sieve_infer_frames_total" + site, ss.Hub.Inference.Frames},
				series{"sieve_infer_batches_total" + site, ss.Hub.Inference.Batches},
				series{"sieve_infer_split_batches_total" + site, ss.Split.SplitBatches},
				series{"sieve_infer_split_fallbacks_total" + site, ss.Split.Fallbacks},
				series{"sieve_infer_split_activation_bytes_total" + site, ss.Split.ActivationBytes},
				series{"sieve_infer_split_edge_ns_total" + site, int64(ss.Split.EdgeTime)},
				series{"sieve_infer_split_cloud_ns_total" + site, int64(ss.Split.CloudTime)},
				series{"sieve_infer_split_cut" + site, int64(ss.Split.Cut)},
			)
		}
		check(t, c.Telemetry(), want)
	})
}
