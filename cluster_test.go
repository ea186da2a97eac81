package sieve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sieve/internal/frame"
	"sieve/internal/labels"
	"sieve/internal/nn"
	"sieve/internal/synth"
)

// clusterScene renders one deterministic camera feed: the smallDataset
// scene family with per-camera seed and car timing, so every camera yields
// different I-frame placements and detections.
func clusterScene(t testing.TB, seed uint64, enter int) *Dataset {
	t.Helper()
	v, err := synth.New(synth.Spec{
		Name: "cam", Width: 128, Height: 80, FPS: 5, NumFrames: 12,
		NoiseAmp: 1,
		Objects: []synth.Object{{
			Class: synth.Car, Enter: enter, Exit: enter + 6, Lane: 0.7, Speed: 24,
			Scale: 0.3, Color: frame.RGB{R: 200, G: 40, B: 40}, Seed: seed,
		}},
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// trainedTestDetector returns a small detector really trained once — tiny
// input, few frames, fixed seed, so it is fast AND deterministic — giving
// the cluster content-dependent labels to shard and merge. Inference is
// read-only (Forward allocates fresh tensors, weights are never touched),
// so the one instance is shared by every feed, exactly like one model
// deployed across a camera fleet.
func trainedTestDetector(t testing.TB) *Detector {
	t.Helper()
	trainDetectorOnce.Do(func() {
		train := clusterScene(t, 99, 2)
		var lab []nn.LabeledFrame
		for i := 0; i < train.NumFrames(); i++ {
			lf := nn.LabeledFrame{Frame: train.Frame(i)}
			for _, b := range train.Boxes(i) {
				lf.Boxes = append(lf.Boxes, nn.ObjectBox{Class: string(b.Class), X: b.X, Y: b.Y, W: b.W, H: b.H})
			}
			lab = append(lab, lf)
		}
		det := NewDetector([]string{"car"}, 64)
		if _, err := det.Train(lab, nn.TrainConfig{Seed: 5, Epochs: 8}); err != nil {
			trainDetectorErr = err
			return
		}
		trainedDetector = det
	})
	if trainDetectorErr != nil {
		t.Fatal(trainDetectorErr)
	}
	return trainedDetector
}

var (
	trainDetectorOnce sync.Once
	trainedDetector   *Detector
	trainDetectorErr  error
)

// clusterCameras is the acceptance fleet: four cameras with distinct
// scenes (names chosen so ShardByHash does not collapse them onto one
// site).
var clusterCameras = []struct {
	name  string
	seed  uint64
	enter int
}{
	{"cam-north", 10, 2},
	{"cam-south", 11, 4},
	{"cam-east", 12, 6},
	{"cam-west", 13, 3},
}

// addClusterFeed registers one acceptance camera on any feed acceptor
// (Cluster or flat Hub) via the supplied add func.
func feedOpts(t testing.TB) []SessionOption {
	return []SessionOption{WithClock(testClock()), WithDetector(trainedTestDetector(t))}
}

// runClusterJSON runs the acceptance fleet through a K=3 cluster and
// returns the merged ResultsDB JSON (written via the atomic Save path) and
// the cluster for further inspection.
func runClusterJSON(t testing.TB, opts ...ClusterOption) ([]byte, *Cluster) {
	t.Helper()
	data, c, _ := runClusterEvents(t, opts...)
	return data, c
}

// runClusterEvents is runClusterJSON that also returns every event the
// cluster stream delivered, in arrival order.
func runClusterEvents(t testing.TB, opts ...ClusterOption) ([]byte, *Cluster, []Event) {
	t.Helper()
	return runFleet(t, trainedTestDetector(t), opts...)
}

// runFleet runs the acceptance fleet through a K=3 cluster, each feed on
// its own test clock and, unless det is nil, with its own detector. It
// returns the merged ResultsDB JSON, the cluster and every event the
// cluster stream delivered, in arrival order.
func runFleet(t testing.TB, det *Detector, opts ...ClusterOption) ([]byte, *Cluster, []Event) {
	t.Helper()
	opts = append([]ClusterOption{WithSharder(ShardRoundRobin()), WithSiteWorkers(2)}, opts...)
	c, err := NewCluster(3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, cam := range clusterCameras {
		feed := []SessionOption{WithClock(testClock())}
		if det != nil {
			feed = append(feed, WithDetector(det))
		}
		if _, _, err := c.AddFeed(cam.name, NewSynthSource(clusterScene(t, cam.seed, cam.enter)), feed...); err != nil {
			t.Fatal(err)
		}
	}
	var events []Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range c.Events() {
			events = append(events, ev)
		}
	}()
	if err := c.Run(context.Background()); err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	<-done
	merged, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "merged.json")
	if err := merged.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, c, events
}

// runFlatHubJSON runs the same fleet through one flat Hub, recording
// detections into a single ResultsDB — the single-box baseline the
// sharded run must match byte for byte.
func runFlatHubJSON(t testing.TB) []byte {
	t.Helper()
	data, err := runHubFleetJSON(context.Background(), t, NewHub(WithWorkers(3)), len(clusterCameras), feedOpts(t)...)
	if err != nil {
		t.Fatalf("flat hub run: %v", err)
	}
	return data
}

// TestClusterShardedRunEquivalence is the acceptance bar: K=3 sites,
// VirtualClock, fixed seeds — the merged ResultsDB JSON is byte-identical
// run to run, and identical to the same feeds through one flat Hub.
func TestClusterShardedRunEquivalence(t *testing.T) {
	a, ca := runClusterJSON(t)
	b, _ := runClusterJSON(t)
	if string(a) != string(b) {
		t.Fatalf("merged ResultsDB differs between identical cluster runs:\n%s\nvs\n%s", a, b)
	}
	flat := runFlatHubJSON(t)
	if string(a) != string(flat) {
		t.Fatalf("sharded merged ResultsDB differs from flat hub:\ncluster:\n%s\nflat:\n%s", a, flat)
	}

	// The runs must be non-trivial: real detections for every camera.
	merged, err := ca.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() == 0 {
		t.Fatal("merged database is empty — the detector produced no detections")
	}
	if cams := merged.Cameras(); len(cams) != len(clusterCameras) {
		t.Fatalf("merged cameras = %v, want %d cameras", cams, len(clusterCameras))
	}

	st := ca.Snapshot()
	if st.Frames != 4*12 {
		t.Fatalf("cluster frames = %d, want 48", st.Frames)
	}
	if st.MergedEntries != st.Detections {
		t.Fatalf("merged entries %d != detections %d (one detection per analysed I-frame)",
			st.MergedEntries, st.Detections)
	}
	if st.UplinkBytes == 0 {
		t.Fatal("uplinks metered no bytes")
	}
	if st.UplinkBytes >= st.PayloadBytes {
		t.Fatalf("uplink bytes %d not smaller than payload bytes %d — semantic filtering gone",
			st.UplinkBytes, st.PayloadBytes)
	}
	// Round robin over 3 sites with 4 feeds: 2/1/1.
	feedsPerSite := make([]int, 0, len(st.Sites))
	for _, ss := range st.Sites {
		feedsPerSite = append(feedsPerSite, len(ss.Hub.Feeds))
	}
	if feedsPerSite[0] != 2 || feedsPerSite[1] != 1 || feedsPerSite[2] != 1 {
		t.Fatalf("round-robin placement = %v, want [2 1 1]", feedsPerSite)
	}
}

func TestClusterEventsTaggedWithSites(t *testing.T) {
	c, err := NewCluster(2, WithSharder(ShardRoundRobin()))
	if err != nil {
		t.Fatal(err)
	}
	assigned := make(map[string]string)
	for _, cam := range clusterCameras[:2] {
		_, site, err := c.AddFeed(cam.name, NewSynthSource(clusterScene(t, cam.seed, cam.enter)),
			WithClock(testClock()))
		if err != nil {
			t.Fatal(err)
		}
		assigned[cam.name] = site
	}
	events := 0
	failed := 0
	done := make(chan struct{})
	go func() {
		// Keep draining even after a failed assertion: abandoning the
		// channel would wedge the site pumps and hang Run.
		defer close(done)
		for ev := range c.Events() {
			events++
			if failed > 0 {
				continue
			}
			if ev.Site == "" || ev.Site != assigned[ev.Feed] {
				t.Errorf("event %s: site %q, want %q", ev, ev.Site, assigned[ev.Feed])
				failed++
			} else if !strings.HasPrefix(ev.String(), ev.Site+"/"+ev.Feed) {
				t.Errorf("event string %q not site-prefixed", ev.String())
				failed++
			}
		}
	}()
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
	if events == 0 {
		t.Fatal("no events forwarded")
	}
}

func TestClusterEdgeStoresArchiveStreams(t *testing.T) {
	_, c := runClusterJSON(t)
	st := c.Snapshot()
	var stored int64
	for _, ss := range st.Sites {
		stored += ss.StoredBytes
		edge, err := c.EdgeStore(ss.Site)
		if err != nil {
			t.Fatal(err)
		}
		// Every feed the site ran is retained and seekable.
		if len(edge.Cameras()) != len(ss.Hub.Feeds) {
			t.Fatalf("site %s stores %v, want %d cameras", ss.Site, edge.Cameras(), len(ss.Hub.Feeds))
		}
	}
	if stored <= st.PayloadBytes {
		t.Fatalf("stored bytes %d not larger than payload %d (container overhead missing?)",
			stored, st.PayloadBytes)
	}
	// Cross-site seek: the caller does not need to know the sharding.
	m, site, err := c.SeekEvent("cam-east", 11)
	if err != nil {
		t.Fatal(err)
	}
	if m.Index < 0 || m.Index > 11 {
		t.Fatalf("SeekEvent index = %d", m.Index)
	}
	if site == "" {
		t.Fatal("SeekEvent did not name the owning site")
	}
	if _, _, err := c.SeekEvent("cam-ghost", 0); err == nil {
		t.Fatal("unknown camera accepted")
	}
	if _, err := c.EdgeStore("ghost"); err == nil {
		t.Fatal("unknown site accepted")
	}
}

func TestClusterQueryAndTrackMergedView(t *testing.T) {
	_, c := runClusterJSON(t)
	merged, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	// Pick a camera with at least one car detection and check Query/Track
	// agree with the merged database.
	for _, cam := range merged.Cameras() {
		frames, err := c.Query(cam, "car", 0, 12)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := c.Track(cam, 12)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr) != 12 {
			t.Fatalf("track length = %d", len(tr))
		}
		for _, f := range frames {
			if !tr[f].Contains("car") {
				t.Fatalf("camera %s frame %d: Query says car, Track says %v", cam, f, tr[f])
			}
		}
	}
}

func TestClusterLifecycleErrors(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Fatal("zero-site cluster accepted")
	}

	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); !errors.Is(err, ErrNoFeeds) {
		t.Fatalf("empty cluster Run = %v, want ErrNoFeeds", err)
	}
	if err := c.Run(context.Background()); !errors.Is(err, ErrAlreadyRun) {
		t.Fatalf("double Run = %v, want ErrAlreadyRun", err)
	}
	if _, _, err := c.AddFeed("late", NewSynthSource(clusterScene(t, 1, 2))); !errors.Is(err, ErrStarted) {
		t.Fatalf("AddFeed after Run = %v, want ErrStarted", err)
	}

	c2, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.AddFeed("dup", NewSynthSource(clusterScene(t, 1, 2))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.AddFeed("dup", NewSynthSource(clusterScene(t, 2, 3))); err == nil {
		t.Fatal("duplicate feed accepted")
	}
	if _, err := c2.Merged(); err == nil {
		t.Fatal("Merged before Run accepted")
	}
	if _, err := c2.Query("dup", "car", 0, 10); err == nil {
		t.Fatal("Query before Run accepted")
	}
}

func TestClusterRunAfterFailedListenerAttach(t *testing.T) {
	// The Cluster twin of TestHubRunAfterFailedListenerAttach: a failed
	// listener attach spends the single Run and freezes the feed set.
	l := NewIngestListener(NewMemListener())
	defer l.Close()
	first, err := NewCluster(2, WithClusterListener(l))
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Run(cancelledCtx()); err == nil {
		t.Fatal("Run under a cancelled context completed its admission window")
	}
	c, err := NewCluster(2, WithClusterListener(l))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err == nil {
		t.Fatal("second owner attached a listener another cluster holds")
	}
	if err := c.Run(context.Background()); !errors.Is(err, ErrAlreadyRun) {
		t.Fatalf("repeat Run = %v, want ErrAlreadyRun", err)
	}
	if _, _, err := c.AddFeed("late", NewSynthSource(clusterScene(t, 1, 2))); !errors.Is(err, ErrStarted) {
		t.Fatalf("AddFeed after a failed Run = %v, want ErrStarted", err)
	}
}

func TestClusterRejectedAddDoesNotPerturbPlacement(t *testing.T) {
	// A rejected AddFeed (duplicate name) must not advance a stateful
	// sharder: placement is a function of the accepted feed sequence only.
	c, err := NewCluster(2, WithSharder(ShardRoundRobin()))
	if err != nil {
		t.Fatal(err)
	}
	_, s1, err := c.AddFeed("a", NewSynthSource(clusterScene(t, 1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AddFeed("a", NewSynthSource(clusterScene(t, 2, 3))); err == nil {
		t.Fatal("duplicate feed accepted")
	}
	_, s2, err := c.AddFeed("b", NewSynthSource(clusterScene(t, 3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if s1 != "site0" || s2 != "site1" {
		t.Fatalf("placement = %s, %s; want site0, site1 (rejected add perturbed the sharder)", s1, s2)
	}
}

func TestClusterSiteIsolation(t *testing.T) {
	c, err := NewCluster(2, WithSharder(ShardRoundRobin()))
	if err != nil {
		t.Fatal(err)
	}
	v := clusterScene(t, 20, 3)
	spec := v.Spec()
	// Site0: a push feed whose producer dies. Site1: a healthy synth feed.
	bad := NewPushSource("bad", spec.Width, spec.Height, spec.FPS, 2)
	if _, site, err := c.AddFeed("bad", bad, WithClock(testClock())); err != nil || site != "site0" {
		t.Fatalf("add bad: %v on %s", err, site)
	}
	if _, site, err := c.AddFeed("good", NewSynthSource(v), WithClock(testClock())); err != nil || site != "site1" {
		t.Fatalf("add good: %v on %s", err, site)
	}
	boom := errors.New("fiber cut")
	go func() {
		_ = bad.Push(context.Background(), v.Frame(0))
		bad.Close(boom)
	}()
	go func() {
		for range c.Events() {
		}
	}()
	err = c.Run(context.Background())
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("cluster error = %v, want wrapped feed error", err)
	}
	if !strings.Contains(err.Error(), "site site0") {
		t.Fatalf("error does not name the failing site: %v", err)
	}
	st := c.Snapshot()
	for _, ss := range st.Sites {
		switch ss.Site {
		case "site0":
			if ss.Err == "" {
				t.Fatal("failing site has no error in snapshot")
			}
		case "site1":
			if ss.Err != "" {
				t.Fatalf("healthy site poisoned: %s", ss.Err)
			}
			if ss.Hub.Frames != v.NumFrames() {
				t.Fatalf("healthy site encoded %d frames, want %d", ss.Hub.Frames, v.NumFrames())
			}
		}
	}
	// The merge plane still produced a global view from what completed.
	if _, err := c.Merged(); err != nil {
		t.Fatalf("merged view unavailable after isolated failure: %v", err)
	}
}

func TestClusterEdgeQuotaSurfaces(t *testing.T) {
	c, err := NewCluster(1, WithEdgeQuota(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AddFeed("cam", NewSynthSource(clusterScene(t, 5, 2)), WithClock(testClock())); err != nil {
		t.Fatal(err)
	}
	go func() {
		for range c.Events() {
		}
	}()
	err = c.Run(context.Background())
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("run with 16-byte quota = %v, want ErrQuotaExceeded", err)
	}
}

func TestClusterHashShardingStable(t *testing.T) {
	place := func() map[string]string {
		c, err := NewCluster(3) // default ShardByHash
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, cam := range clusterCameras {
			_, site, err := c.AddFeed(cam.name, NewSynthSource(clusterScene(t, cam.seed, cam.enter)))
			if err != nil {
				t.Fatal(err)
			}
			out[cam.name] = site
		}
		return out
	}
	a, b := place(), place()
	for name, site := range a {
		if b[name] != site {
			t.Fatalf("hash placement of %s unstable: %s vs %s", name, site, b[name])
		}
	}
}

func TestClusterLeastBusyBalancesFrames(t *testing.T) {
	c, err := NewCluster(2, WithSharder(ShardLeastBusy()))
	if err != nil {
		t.Fatal(err)
	}
	// First feed lands on site0 (idle tie), second on site1 (site0 now
	// carries 12 expected frames), third back on site0-or-site1 by load.
	_, s1, err := c.AddFeed("a", NewSynthSource(clusterScene(t, 1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := c.AddFeed("b", NewSynthSource(clusterScene(t, 2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if s1 != "site0" || s2 != "site1" {
		t.Fatalf("least-busy placed feeds on %s, %s; want site0, site1", s1, s2)
	}
}

func TestClusterSingleSiteDegeneratesToHub(t *testing.T) {
	// K=1 is the flat deployment: everything still works, merged view is
	// just the one shard.
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AddFeed("cam", NewSynthSource(clusterScene(t, 7, 4)), feedOpts(t)...); err != nil {
		t.Fatal(err)
	}
	go func() {
		for range c.Events() {
		}
	}()
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	merged, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() == 0 {
		t.Fatal("single-site cluster produced no detections")
	}
	if got := c.Sites(); len(got) != 1 || got[0] != "site0" {
		t.Fatalf("Sites = %v", got)
	}
}

// TestClusterFailoverEquivalence is the robustness acceptance bar: kill
// one site mid-run and the merged ResultsDB JSON is still byte-identical
// to the fault-free flat-Hub run — the crashed site's flushed prefix
// arrives via streaming deltas, the rest is re-produced by the migrated
// feed replaying from the EdgeStore resume point — and identical across
// repeats (run it under -race; the fault script is frame-anchored, so the
// schedule cannot move the crash).
func TestClusterFailoverEquivalence(t *testing.T) {
	plan, err := ParseFaultPlan("crash:site1:cam-south@6")
	if err != nil {
		t.Fatal(err)
	}
	a, ca, events := runClusterEvents(t, WithFaultPlan(plan))
	b, _ := runClusterJSON(t, WithFaultPlan(plan))
	if string(a) != string(b) {
		t.Fatalf("merged ResultsDB differs between identical failover runs:\n%s\nvs\n%s", a, b)
	}
	flat := runFlatHubJSON(t)
	if string(a) != string(flat) {
		t.Fatalf("failover merged ResultsDB differs from fault-free flat hub:\ncluster:\n%s\nflat:\n%s", a, flat)
	}

	st := ca.Snapshot()
	if st.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", st.Crashes)
	}
	if st.MigratedFeeds != 1 || st.LostFeeds != 0 {
		t.Fatalf("MigratedFeeds = %d, LostFeeds = %d; want 1, 0", st.MigratedFeeds, st.LostFeeds)
	}
	fo := ca.Failovers()
	if len(fo) != 1 || fo[0].Feed != "cam-south" || fo[0].From != "site1" || fo[0].To == "site1" {
		t.Fatalf("Failovers = %+v", fo)
	}
	if fo[0].ResumeFrame < 0 || fo[0].ResumeFrame > 6 {
		t.Fatalf("resume frame %d outside the pre-crash window", fo[0].ResumeFrame)
	}
	// The seekable synth feed re-runs from the resume point to its end, and
	// every replayed frame reaches the stream tagged with the adoptive site.
	frames := clusterScene(t, 11, 4).NumFrames()
	if want := frames - fo[0].ResumeFrame; fo[0].ReplayedFrames != want {
		t.Fatalf("ReplayedFrames = %d, want %d frames from resume frame %d",
			fo[0].ReplayedFrames, want, fo[0].ResumeFrame)
	}
	if st.ReplayedFrames != fo[0].ReplayedFrames {
		t.Fatalf("snapshot ReplayedFrames = %d, failover record %d", st.ReplayedFrames, fo[0].ReplayedFrames)
	}
	adopted := 0
	for _, ev := range events {
		if ev.Feed == "cam-south" && ev.Kind == EventFrameEncoded && ev.Site == fo[0].To {
			adopted++
		}
	}
	if adopted != fo[0].ReplayedFrames {
		t.Fatalf("%d cam-south frames encoded on adoptive %s, want %d", adopted, fo[0].To, fo[0].ReplayedFrames)
	}
	deg := ca.Degraded()
	if len(deg) != 1 || deg[0].Site != "site1" {
		t.Fatalf("Degraded = %+v, want the crashed site marked", deg)
	}
	// The merge notes the replica cursor after the crash; it does not
	// replace it.
	if want := "crashed; feeds failing over; no final report; merged streamed replica at cursor "; !strings.HasPrefix(deg[0].Reason, want) {
		t.Fatalf("degraded reason after Run = %q, want prefix %q", deg[0].Reason, want)
	}
	if st.DeltaSyncs == 0 {
		t.Fatal("no streaming delta syncs recorded")
	}

	// An adoptive site with no feeds of its own has no flusher but the
	// migration, so the migration's own delta flushes are all that keeps
	// the cloud view current. With a flush per detection, every replayed
	// detection is in View() by the time its event arrives, and the view
	// ends whole. A 2-frame GOP gives the feed I-frames, and so detections,
	// past the crash point.
	plan, err = ParseFaultPlan("crash:site0:cam-south@6")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(2, WithSharder(ShardRoundRobin()), WithDeltaSync(1, 4), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	south := clusterScene(t, 11, 4)
	params := DefaultParams(south.Spec().Width, south.Spec().Height)
	params.GOPSize = 2
	opts := append(feedOpts(t), WithTunedParams(params))
	if _, site, err := c.AddFeed("cam-south", NewSynthSource(south), opts...); err != nil || site != "site0" {
		t.Fatalf("add cam-south: %v on %s", err, site)
	}
	replayed := 0
	var staleErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range c.Events() {
			if ev.Kind != EventDetection || ev.Site != "site1" {
				continue
			}
			replayed++
			if view, err := c.View(); err != nil {
				staleErr = err
			} else if _, ok := view.Get(ev.Feed, ev.Frame); !ok && staleErr == nil {
				staleErr = fmt.Errorf("replayed detection %s@%d not in the cloud view when delivered", ev.Feed, ev.Frame)
			}
		}
	}()
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
	if staleErr != nil {
		t.Fatal(staleErr)
	}
	if replayed == 0 {
		t.Fatal("the adoptive site replayed no detections")
	}
	view, err := c.View()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != merged.Len() {
		t.Fatalf("final cloud view has %d entries, merged %d", view.Len(), merged.Len())
	}
}

// TestClusterViewQueryableMidRun asserts the streaming half of the
// tentpole: with per-detection delta flushes, by the time a detection
// event reaches the consumer its entry is already applied to the cloud
// replicas, so View() serves it while Run is still in flight.
func TestClusterViewQueryableMidRun(t *testing.T) {
	c, err := NewCluster(3, WithSharder(ShardRoundRobin()), WithSiteWorkers(2), WithDeltaSync(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, cam := range clusterCameras {
		if _, _, err := c.AddFeed(cam.name, NewSynthSource(clusterScene(t, cam.seed, cam.enter)), feedOpts(t)...); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	var midLen int
	var midErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range c.Events() {
			if ev.Kind != EventDetection {
				continue
			}
			seen++
			if view, err := c.View(); err != nil {
				midErr = err
			} else if view.Len() < seen {
				midErr = fmt.Errorf("after %d detections the mid-run view has %d entries", seen, view.Len())
			} else {
				midLen = view.Len()
			}
		}
	}()
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
	if midErr != nil {
		t.Fatal(midErr)
	}
	if seen == 0 || midLen == 0 {
		t.Fatalf("mid-run view never observed (detections %d, last view len %d)", seen, midLen)
	}
	merged, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if midLen != merged.Len() {
		t.Fatalf("final mid-run view %d entries, merged %d", midLen, merged.Len())
	}
}

// TestClusterPartitionDegradesThenHeals scripts an uplink partition. Left
// unhealed, the run still completes without error: the cloud keeps the
// partitioned site's stale replica and says so via a degraded marker.
// With a linkup before the end, the reconcile pass flushes the backlog and
// the merged view converges on the flat baseline with no markers.
func TestClusterPartitionDegradesThenHeals(t *testing.T) {
	flat := runFlatHubJSON(t)

	plan, err := ParseFaultPlan("linkdown:site1:cam-south@3")
	if err != nil {
		t.Fatal(err)
	}
	stale, c1 := runClusterJSON(t, WithFaultPlan(plan))
	deg := c1.Degraded()
	if len(deg) != 1 || deg[0].Site != "site1" {
		t.Fatalf("Degraded = %+v, want site1 marked", deg)
	}
	if string(stale) == string(flat) {
		t.Fatal("partitioned run matched the flat baseline — the partition had no effect")
	}
	if st := c1.Snapshot(); st.SyncRetries == 0 {
		t.Fatal("no backoff retries recorded against the partitioned uplink")
	}
	// The stale view is a strict subset: consistent, just behind. Every
	// entry it does hold must agree with the fault-free baseline, so
	// merging it into the baseline must raise no conflict.
	merged1, err := c1.Merged()
	if err != nil {
		t.Fatal(err)
	}
	flatPath := filepath.Join(t.TempDir(), "flat.json")
	if err := os.WriteFile(flatPath, flat, 0o644); err != nil {
		t.Fatal(err)
	}
	baseline, err := LoadResultsDB(flatPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := baseline.Merge(merged1); err != nil {
		t.Fatalf("stale view disagrees with the fault-free baseline: %v", err)
	}
	if merged1.Len() >= baseline.Len() {
		t.Fatalf("stale view has %d entries, baseline %d — nothing went stale", merged1.Len(), baseline.Len())
	}

	healed, errPlan := ParseFaultPlan("linkdown:site1:cam-south@3;linkup:site1:cam-south@11")
	if errPlan != nil {
		t.Fatal(errPlan)
	}
	data, c2 := runClusterJSON(t, WithFaultPlan(healed))
	if string(data) != string(flat) {
		t.Fatalf("healed run did not converge on the flat baseline:\n%s\nvs\n%s", data, flat)
	}
	if deg := c2.Degraded(); len(deg) != 0 {
		t.Fatalf("healed run still degraded: %+v", deg)
	}
}

// unsyncedSite returns a one-site cluster whose site holds one detection
// the cloud replica has not applied.
func unsyncedSite(t *testing.T) (*Cluster, *clusterSite) {
	t.Helper()
	c, err := NewCluster(1, WithDeltaSync(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	s := c.sites[0]
	s.shard.Put("cam", 0, labels.NewSet("car"))
	return c, s
}

// TestFlushDeltasCancelledContext: a flush whose context is already done
// (a crashed site's pump) makes no attempt, so it counts no delta sync, no
// retry (never a negative one) and marks nothing.
func TestFlushDeltasCancelledContext(t *testing.T) {
	c, s := unsyncedSite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.flushDeltas(ctx, s)
	if st := c.Snapshot(); st.DeltaSyncs != 0 || st.SyncRetries != 0 {
		t.Fatalf("cancelled flush counted DeltaSyncs = %d, SyncRetries = %d; want 0, 0", st.DeltaSyncs, st.SyncRetries)
	}
	if deg := c.Degraded(); len(deg) != 0 {
		t.Fatalf("cancelled flush marked %+v", deg)
	}
	if got := c.coord.SyncCursor(s.name); got != 0 {
		t.Fatalf("cancelled flush moved the cursor to %d", got)
	}
}

// TestFlushDeltasExhaustsAttempts: over a partitioned uplink one flush
// makes exactly syncAttempts tries and marks the site degraded; once the
// link heals the next flush ships in one try and clears the marker.
func TestFlushDeltasExhaustsAttempts(t *testing.T) {
	c, s := unsyncedSite(t)
	l, _ := c.topo.Uplink(s.name)
	l.Fail()
	c.flushDeltas(context.Background(), s)
	if st := c.Snapshot(); st.DeltaSyncs != 1 || st.SyncRetries != 2 {
		t.Fatalf("partitioned flush: DeltaSyncs = %d, SyncRetries = %d; want 1, 2", st.DeltaSyncs, st.SyncRetries)
	}
	deg := c.Degraded()
	if len(deg) != 1 || !strings.HasPrefix(deg[0].Reason, "delta sync stalled at cursor 0 after 3 attempts: ") {
		t.Fatalf("Degraded = %+v, want the stalled sync after 3 attempts", deg)
	}
	l.Heal()
	c.flushDeltas(context.Background(), s)
	if st := c.Snapshot(); st.DeltaSyncs != 2 || st.SyncRetries != 2 {
		t.Fatalf("healed flush: DeltaSyncs = %d, SyncRetries = %d; want 2, 2", st.DeltaSyncs, st.SyncRetries)
	}
	if deg := c.Degraded(); len(deg) != 0 {
		t.Fatalf("healed flush left %+v", deg)
	}
	if got, want := c.coord.SyncCursor(s.name), s.shard.Version(); got != want {
		t.Fatalf("cursor = %d after the healed flush, want %d", got, want)
	}
}

// catchUpCtx is a context whose first Err call runs catchUp. flushDeltas
// checks its context after its cursor check and before each try, so
// catchUp runs exactly where a concurrent flusher (a migration pump) can
// catch the replica up under it.
type catchUpCtx struct {
	context.Context
	catchUp func()
}

func (c *catchUpCtx) Err() error {
	if f := c.catchUp; f != nil {
		c.catchUp = nil
		f()
	}
	return c.Context.Err()
}

// TestFlushDeltasCaughtUpCountsNothing: a flush whose try finds the replica
// already caught up by another flusher shipped nothing, so it counts no
// delta sync and no retry; the next flush that ships counts one.
func TestFlushDeltasCaughtUpCountsNothing(t *testing.T) {
	c, s := unsyncedSite(t)
	l, _ := c.topo.Uplink(s.name)
	ctx := &catchUpCtx{Context: context.Background(), catchUp: func() {
		d, err := s.shard.DeltaSince(c.coord.SyncCursor(s.name))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.coord.ShipDelta(s.name, d); err != nil {
			t.Fatal(err)
		}
	}}
	c.flushDeltas(ctx, s)
	if st := c.Snapshot(); st.DeltaSyncs != 0 || st.SyncRetries != 0 {
		t.Fatalf("flush over a caught-up replica counted DeltaSyncs = %d, SyncRetries = %d; want 0, 0", st.DeltaSyncs, st.SyncRetries)
	}
	if _, transfers, _ := l.Stats(); transfers != 1 {
		t.Fatalf("uplink transfers = %d, want 1 (the other flusher's)", transfers)
	}
	s.shard.Put("cam", 3, labels.NewSet("bus"))
	c.flushDeltas(context.Background(), s)
	if st := c.Snapshot(); st.DeltaSyncs != 1 {
		t.Fatalf("DeltaSyncs = %d after a flush that shipped, want 1", st.DeltaSyncs)
	}
	if got, want := c.coord.SyncCursor(s.name), s.shard.Version(); got != want {
		t.Fatalf("cursor = %d, want %d", got, want)
	}
}

// TestReconcileMergesOnlyWhatCrossed: the merged view is what crossed the
// uplink. A site that submitted its manifest and then gained an entry it
// could not ship merges without that entry, marked by its stalled sync;
// once the link heals, reconcile flushes the backlog and the view comes
// level with the shard.
func TestReconcileMergesOnlyWhatCrossed(t *testing.T) {
	c, s := unsyncedSite(t)
	ctx := context.Background()
	if err := c.submit(ctx, s); err != nil {
		t.Fatal(err)
	}
	s.shard.Put("cam", 3, labels.NewSet("bus"))
	l, _ := c.topo.Uplink(s.name)
	l.Fail()
	c.flushDeltas(ctx, s)
	c.reconcile(ctx)
	merged, err := c.coord.MergeAll()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 1 {
		t.Fatalf("merged entries = %d over a dead uplink, want 1 (the replica's)", merged.Len())
	}
	if _, ok := merged.Get("cam", 3); ok {
		t.Fatal("an entry that never crossed the uplink appeared in the merged view")
	}
	deg := c.Degraded()
	if len(deg) != 1 || !strings.HasPrefix(deg[0].Reason, "delta sync stalled at cursor 1 ") {
		t.Fatalf("Degraded = %+v, want the stalled sync at cursor 1", deg)
	}

	l.Heal()
	c.reconcile(ctx)
	if merged, err = c.coord.MergeAll(); err != nil {
		t.Fatal(err)
	}
	got, err := merged.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.shard.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("healed view:\n%s\nwant the shard:\n%s", got, want)
	}
	if deg := c.Degraded(); len(deg) != 0 {
		t.Fatalf("healed reconcile left %+v", deg)
	}
}

// TestClusterLoadSkewSteersFailover scripts a LoadSkew before the crash:
// the least-busy sharder sees the skewed site as overloaded and places the
// orphan on the other survivor.
func TestClusterLoadSkewSteersFailover(t *testing.T) {
	place := func(script string) string {
		plan, err := ParseFaultPlan(script)
		if err != nil {
			t.Fatal(err)
		}
		_, c := runClusterJSON(t, WithSharder(ShardLeastBusy()), WithFaultPlan(plan))
		fo := c.Failovers()
		if len(fo) != 1 {
			t.Fatalf("Failovers = %+v, want exactly one", fo)
		}
		return fo[0].To
	}
	// Least-busy over the acceptance fleet: site0 carries two feeds (24
	// expected frames), site2 one (12). Unskewed, the orphan goes to site2.
	if to := place("crash:site1:cam-south@6"); to != "site2" {
		t.Fatalf("unskewed failover went to %s, want site2", to)
	}
	// Skewing site2 by 10x flips the choice to site0.
	if to := place("skew:site2:cam-south@1:10;crash:site1:cam-south@6"); to != "site0" {
		t.Fatalf("skewed failover went to %s, want site0", to)
	}
}

// TestClusterUnseekableFeedReplaysTail crashes a site holding a push (live,
// unseekable) feed: failover pins the salvaged EdgeStore stream and replays
// its tail on the adoptive site — the only part of a live feed that can be
// reconstructed without the ingest plane's RESUME path.
func TestClusterUnseekableFeedReplaysTail(t *testing.T) {
	plan, err := ParseFaultPlan("crash:site0:live@8")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(2, WithSharder(ShardRoundRobin()), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	v := clusterScene(t, 31, 3)
	spec := v.Spec()
	live := NewPushSource("live", spec.Width, spec.Height, spec.FPS, v.NumFrames())
	if _, site, err := c.AddFeed("live", live, feedOpts(t)...); err != nil || site != "site0" {
		t.Fatalf("add live: %v on %s", err, site)
	}
	if _, site, err := c.AddFeed("steady", NewSynthSource(clusterScene(t, 32, 4)), feedOpts(t)...); err != nil || site != "site1" {
		t.Fatalf("add steady: %v on %s", err, site)
	}
	go func() {
		for i := 0; i < v.NumFrames(); i++ {
			if err := live.Push(context.Background(), v.Frame(i)); err != nil {
				break
			}
		}
		live.Close(nil)
	}()
	go func() {
		for range c.Events() {
		}
	}()
	if err := c.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	fo := c.Failovers()
	if len(fo) != 1 || fo[0].Feed != "live" || fo[0].To != "site1" {
		t.Fatalf("Failovers = %+v, want live adopted by site1", fo)
	}
	if fo[0].ReplayedFrames == 0 {
		t.Fatal("no tail frames replayed from the salvaged stream")
	}
	// The replayed tail segment is archived on the adoptive site.
	edge, err := c.EdgeStore("site1")
	if err != nil {
		t.Fatal(err)
	}
	cams := edge.Cameras()
	found := false
	for _, cam := range cams {
		if cam == "live" {
			found = true
		}
	}
	if !found {
		t.Fatalf("adoptive site stores %v, want the live tail segment", cams)
	}
	merged, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.AnalysedFrames("live")) == 0 {
		t.Fatal("no detections for the live feed survived the crash")
	}
}

func TestSharderByNameRoundTrip(t *testing.T) {
	for _, name := range []string{"hash", "roundrobin", "leastbusy"} {
		s, err := SharderByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Fatalf("SharderByName(%s).Name() = %s", name, s.Name())
		}
	}
	if _, err := SharderByName("nope"); err == nil {
		t.Fatal("unknown sharder accepted")
	}
	if fmt.Sprint(ShardByHash().Name()) != "hash" {
		t.Fatal("default sharder is not hash")
	}
}
