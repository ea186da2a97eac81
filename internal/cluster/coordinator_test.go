package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"sieve/internal/labels"
	"sieve/internal/simnet"
	"sieve/internal/store"
)

func testTopo(t *testing.T, names ...string) *Topology {
	t.Helper()
	topo, err := NewStarTopology(names, 30e6, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestStarTopology(t *testing.T) {
	topo := testTopo(t, "site0", "site1")
	if got := topo.Sites(); len(got) != 2 || got[0] != "site0" || got[1] != "site1" {
		t.Fatalf("Sites = %v", got)
	}
	l0, _ := topo.Uplink("site0")
	l, ok := topo.Uplink("site1")
	if !ok || l == nil || l == l0 {
		t.Fatalf("Uplink(site1) = %v, %v; want a link of its own", l, ok)
	}
	if _, ok := topo.Uplink("nope"); ok {
		t.Fatal("unknown site has an uplink")
	}
	if _, err := NewStarTopology([]string{"a", "a"}, 0, -1); err == nil {
		t.Fatal("duplicate site accepted")
	}
	if _, err := NewStarTopology(nil, 0, -1); err == nil {
		t.Fatal("empty topology accepted")
	}
	// Defaults kick in for non-positive bandwidth / negative latency.
	def, err := NewStarTopology([]string{"s"}, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	l, _ = def.Uplink("s")
	if l.Bandwidth() != DefaultUplinkBps {
		t.Fatalf("default bandwidth = %g", l.Bandwidth())
	}
}

func TestCoordinatorMetersUplinks(t *testing.T) {
	topo := testTopo(t, "site0", "site1")
	c := NewCoordinator(topo)
	ls := labels.NewSet("car")

	if err := c.ShipDetection("site0", "cam0", ls); err != nil {
		t.Fatal(err)
	}
	if err := c.ShipStats("site0"); err != nil {
		t.Fatal(err)
	}
	if err := c.ShipDetection("ghost", "cam0", ls); err == nil {
		t.Fatal("unknown site accepted")
	}

	bytes, transfers, busy, err := c.UplinkStats("site0")
	if err != nil {
		t.Fatal(err)
	}
	want := DetectionWireBytes("cam0", ls) + statsWireBytes
	if bytes != want || transfers != 2 {
		t.Fatalf("site0 uplink = %d bytes / %d transfers, want %d / 2", bytes, transfers, want)
	}
	if busy <= 0 {
		t.Fatal("uplink busy time not accounted")
	}
	if b1, _, _, _ := otherStats(c, "site1"); b1 != 0 {
		t.Fatalf("site1 uplink saw %d bytes without traffic", b1)
	}
}

func otherStats(c *Coordinator, site string) (int64, int64, time.Duration, error) {
	return c.UplinkStats(site)
}

// ship sends a shard's whole change log to the site's replica, as the
// edge's delta sync does before its manifest, and returns the delta.
func ship(t *testing.T, c *Coordinator, site string, shard *store.ResultsDB) store.Delta {
	t.Helper()
	d, err := shard.DeltaSince(c.SyncCursor(site))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ShipDelta(site, d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCoordinatorMergeAllDisjointShards(t *testing.T) {
	topo := testTopo(t, "site0", "site1")
	c := NewCoordinator(topo)

	shard0 := store.NewResultsDB()
	shard0.Put("cam0", 0, labels.NewSet("car"))
	shard0.Put("cam0", 9, labels.NewSet("bus"))
	shard1 := store.NewResultsDB()
	shard1.Put("cam1", 4, labels.NewSet("person"))

	ship(t, c, "site1", shard1)
	if err := c.Submit(Report{Site: "site1", Shard: shard1}); err != nil {
		t.Fatal(err)
	}
	d0 := ship(t, c, "site0", shard0)
	if err := c.Submit(Report{Site: "site0", Shard: shard0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(Report{Site: "site0", Shard: shard0}); err == nil {
		t.Fatal("double submit accepted")
	}
	if err := c.Submit(Report{Site: "ghost", Shard: shard0}); err == nil {
		t.Fatal("unknown site accepted")
	}

	merged, err := c.MergeAll()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 3 {
		t.Fatalf("merged entries = %d, want 3", merged.Len())
	}
	// Cross-camera serving straight off the merged view.
	if frames := merged.Query("cam0", "car", 0, 9); len(frames) != 9 || frames[0] != 0 {
		t.Fatalf("Query = %v (propagated car frames 0..8)", frames)
	}
	if tr := merged.Track("cam1", 6); !tr[5].Contains("person") || !tr[4].Contains("person") || len(tr[3]) != 0 {
		t.Fatalf("Track = %v", tr)
	}
	// The delta and the submit manifest were metered.
	b, _, _, err := c.UplinkStats("site0")
	if err != nil {
		t.Fatal(err)
	}
	if want := DeltaWireBytes(d0) + reportOverheadBytes; b != want {
		t.Fatalf("site0 uplink = %d bytes, want delta plus submit header %d", b, want)
	}
	// Both sites reported, so nothing is degraded.
	if deg := c.Degraded(); len(deg) != 0 {
		t.Fatalf("Degraded = %v", deg)
	}
}

// TestCoordinatorManifestAheadOfReplica pins that the merged view is what
// crossed the uplink: a manifest whose cursor the replica never reached
// marks the site stale, and the entries that never shipped stay out of the
// view even though the submitted shard holds them.
func TestCoordinatorManifestAheadOfReplica(t *testing.T) {
	topo := testTopo(t, "site0")
	c := NewCoordinator(topo)
	c.Register("site0")

	shard := store.NewResultsDB()
	shard.Put("cam0", 0, labels.NewSet("car"))
	ship(t, c, "site0", shard)
	shard.Put("cam0", 5, labels.NewSet("bus"))
	if err := c.Submit(Report{Site: "site0", Shard: shard}); err != nil {
		t.Fatal(err)
	}

	merged, err := c.MergeAll()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 1 {
		t.Fatalf("merged entries = %d, want 1 (the shipped one)", merged.Len())
	}
	if _, ok := merged.Get("cam0", 5); ok {
		t.Fatal("an entry that never crossed the uplink appeared in the merged view")
	}
	deg := c.Degraded()
	if want := "no final report; merged streamed replica at cursor 1"; len(deg) != 1 || deg[0].Site != "site0" || deg[0].Reason != want {
		t.Fatalf("Degraded = %+v, want site0 %q", deg, want)
	}
	// Once the rest ships the replica meets the manifest: no new note.
	ship(t, c, "site0", shard)
	c.ClearDegraded("site0")
	if merged, err = c.MergeAll(); err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 2 {
		t.Fatalf("merged entries = %d, want 2", merged.Len())
	}
	if deg := c.Degraded(); len(deg) != 0 {
		t.Fatalf("Degraded after the catch-up = %+v", deg)
	}
}

func TestCoordinatorDeltaSync(t *testing.T) {
	topo := testTopo(t, "site0")
	c := NewCoordinator(topo)
	c.Register("site0")

	shard := store.NewResultsDB()
	shard.Put("cam0", 0, labels.NewSet("car"))
	shard.Put("cam0", 4, labels.NewSet("bus"))

	if got := c.SyncCursor("site0"); got != 0 {
		t.Fatalf("initial SyncCursor = %d", got)
	}
	d, err := shard.DeltaSince(c.SyncCursor("site0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ShipDelta("site0", d); err != nil {
		t.Fatal(err)
	}
	if got := c.SyncCursor("site0"); got != 2 {
		t.Fatalf("SyncCursor after delta = %d, want 2", got)
	}
	// The delta was metered on the uplink.
	b, _, _, _ := c.UplinkStats("site0")
	if b != DeltaWireBytes(d) {
		t.Fatalf("uplink = %d bytes, want %d", b, DeltaWireBytes(d))
	}
	// Mid-run view serves queries before any MergeAll.
	view, err := c.View()
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != 2 {
		t.Fatalf("View entries = %d, want 2", view.Len())
	}
	if got := c.AppliedFrame("cam0"); got != 4 {
		t.Fatalf("AppliedFrame = %d, want 4", got)
	}
	if got := c.AppliedFrame("ghost"); got != -1 {
		t.Fatalf("AppliedFrame(ghost) = %d, want -1", got)
	}

	// Partition the uplink: the ship fails, the cursor does not advance.
	shard.Put("cam0", 8, labels.NewSet("car"))
	l, _ := topo.Uplink("site0")
	l.Fail()
	d2, _ := shard.DeltaSince(c.SyncCursor("site0"))
	if err := c.ShipDelta("site0", d2); !errors.Is(err, simnet.ErrLinkDown) {
		t.Fatalf("ShipDelta over dead link = %v, want ErrLinkDown", err)
	}
	if got := c.SyncCursor("site0"); got != 2 {
		t.Fatalf("cursor advanced over a dead link: %d", got)
	}
	// Heal and retry the identical delta: applies exactly once.
	l.Heal()
	if err := c.ShipDelta("site0", d2); err != nil {
		t.Fatal(err)
	}
	if err := c.ShipDelta("site0", d2); err != nil {
		t.Fatalf("idempotent retransmission rejected: %v", err)
	}
	if got := c.SyncCursor("site0"); got != 3 {
		t.Fatalf("SyncCursor = %d, want 3", got)
	}
}

// TestCoordinatorPartialMergeDegrades pins the partial-shard-set contract:
// a registered site that never submits its final report must surface as an
// explicit degraded marker on the merged view — its streamed replica is
// merged (stale-but-consistent), never silently dropped.
func TestCoordinatorPartialMergeDegrades(t *testing.T) {
	topo := testTopo(t, "site0", "site1")
	c := NewCoordinator(topo)
	c.Register("site0")
	c.Register("site1")

	shard0 := store.NewResultsDB()
	shard0.Put("cam0", 0, labels.NewSet("car"))
	shard1 := store.NewResultsDB()
	shard1.Put("cam1", 0, labels.NewSet("bus"))
	shard1.Put("cam1", 5, labels.NewSet("bus"))

	// site0 completes normally; site1 streams one delta, then dies before
	// its second delta and final report.
	ship(t, c, "site0", shard0)
	if err := c.Submit(Report{Site: "site0", Shard: shard0}); err != nil {
		t.Fatal(err)
	}
	partial, err := shard1.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	partial.To = 1
	partial.Entries = partial.Entries[:1]
	if err := c.ShipDelta("site1", partial); err != nil {
		t.Fatal(err)
	}
	c.MarkDegraded("site1", "crashed; feeds failing over")

	if _, err := c.MergeAll(); err != nil {
		t.Fatal(err)
	}
	merged, err := c.MergeAll() // a second merge must not repeat the note
	if err != nil {
		t.Fatal(err)
	}
	// The merged view has site0's shard plus site1's streamed prefix.
	if merged.Len() != 2 {
		t.Fatalf("merged entries = %d, want 2", merged.Len())
	}
	if _, ok := merged.Get("cam1", 0); !ok {
		t.Fatal("streamed replica entry missing from merged view")
	}
	if _, ok := merged.Get("cam1", 5); ok {
		t.Fatal("unsynced entry appeared in merged view")
	}
	deg := c.Degraded()
	if len(deg) != 1 || deg[0].Site != "site1" {
		t.Fatalf("Degraded = %+v, want exactly site1", deg)
	}
	if want := "crashed; feeds failing over; no final report; merged streamed replica at cursor 1"; deg[0].Reason != want {
		t.Fatalf("degraded reason = %q, want %q (the run's cause kept, the replica cursor appended once)", deg[0].Reason, want)
	}
	// Recovery: the rest of the shard and the late report arrive, the
	// marker clears on re-merge.
	ship(t, c, "site1", shard1)
	if err := c.Submit(Report{Site: "site1", Shard: shard1}); err != nil {
		t.Fatal(err)
	}
	c.ClearDegraded("site1")
	merged, err = c.MergeAll()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 3 {
		t.Fatalf("re-merged entries = %d, want 3", merged.Len())
	}
	if deg := c.Degraded(); len(deg) != 0 {
		t.Fatalf("Degraded after recovery = %+v", deg)
	}
}

func TestCoordinatorSubmitOverDeadLink(t *testing.T) {
	topo := testTopo(t, "site0")
	c := NewCoordinator(topo)
	l, _ := topo.Uplink("site0")
	l.Fail()
	shard := store.NewResultsDB()
	if err := c.Submit(Report{Site: "site0", Shard: shard}); !errors.Is(err, simnet.ErrLinkDown) {
		t.Fatalf("Submit over dead link = %v, want ErrLinkDown", err)
	}
	// After healing the same submit succeeds: the failed one was not
	// recorded, or this would be refused as a second submit.
	l.Heal()
	if err := c.Submit(Report{Site: "site0", Shard: shard}); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorMergeConflict(t *testing.T) {
	topo := testTopo(t, "site0", "site1")
	c := NewCoordinator(topo)

	a := store.NewResultsDB()
	a.Put("cam", 5, labels.NewSet("car"))
	b := store.NewResultsDB()
	b.Put("cam", 5, labels.NewSet("bus"))
	ship(t, c, "site0", a)
	ship(t, c, "site1", b)
	if err := c.Submit(Report{Site: "site0", Shard: a}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(Report{Site: "site1", Shard: b}); err != nil {
		t.Fatal(err)
	}
	_, err := c.MergeAll()
	var mc *store.MergeConflictError
	if !errors.As(err, &mc) {
		t.Fatalf("MergeAll error = %v, want MergeConflictError", err)
	}
	if mc.Camera != "cam" || mc.Frame != 5 {
		t.Fatalf("conflict at %s/%d, want cam/5", mc.Camera, mc.Frame)
	}
	if !strings.Contains(err.Error(), "site1") {
		t.Fatalf("error does not name the conflicting site: %v", err)
	}
}

func TestCoordinatorShipActivation(t *testing.T) {
	topo := testTopo(t, "site0")
	c := NewCoordinator(topo)

	if err := c.ShipActivation("site0", 4096); err != nil {
		t.Fatal(err)
	}
	bytes, transfers, busy, err := c.UplinkStats("site0")
	if err != nil {
		t.Fatal(err)
	}
	if bytes != 4096 || transfers != 1 {
		t.Fatalf("uplink = %d bytes / %d transfers, want 4096 / 1", bytes, transfers)
	}
	if busy <= 0 {
		t.Fatal("activation transfer time not accounted")
	}
	if err := c.ShipActivation("ghost", 1); err == nil {
		t.Fatal("unknown site accepted")
	}

	// Unlike the detection stream, a dead uplink propagates the failure so
	// the split plane can recompute the batch on the edge.
	l, _ := topo.Uplink("site0")
	l.Fail()
	if err := c.ShipActivation("site0", 4096); !errors.Is(err, simnet.ErrLinkDown) {
		t.Fatalf("ShipActivation over dead link = %v, want ErrLinkDown", err)
	}
	l.Heal()
	if err := c.ShipActivation("site0", 4096); err != nil {
		t.Fatal(err)
	}
}
