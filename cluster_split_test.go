package sieve

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// runSplitClusterJSON runs the acceptance fleet through a K=3 cluster with
// split inference at the given cut (SplitAuto tunes per site) and returns
// the merged ResultsDB JSON plus the final snapshot.
func runSplitClusterJSON(t testing.TB, batch, cut int, opts ...ClusterOption) ([]byte, ClusterStats) {
	t.Helper()
	return runSitePlaneClusterJSON(t, WithSplitInference(trainedTestDetector(t), batch, cut), opts...)
}

// runSitePlaneClusterJSON runs the acceptance fleet through a K=3 cluster
// whose site planes come from plane (WithClusterInference or
// WithSplitInference). Feeds carry no detector of their own — detection
// happens only through the per-site planes.
func runSitePlaneClusterJSON(t testing.TB, plane ClusterOption, opts ...ClusterOption) ([]byte, ClusterStats) {
	t.Helper()
	opts = append([]ClusterOption{WithSharder(ShardRoundRobin()), WithSiteWorkers(2), plane}, opts...)
	c, err := NewCluster(3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, cam := range clusterCameras {
		if _, _, err := c.AddFeed(cam.name, NewSynthSource(clusterScene(t, cam.seed, cam.enter)),
			WithClock(testClock())); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range c.Events() {
		}
	}()
	if err := c.Run(context.Background()); err != nil {
		t.Fatalf("site-plane cluster run: %v", err)
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
	return data, c.Snapshot()
}

// TestClusterSplitEquivalence is the split-inference acceptance bar: the
// merged ResultsDB JSON is byte-identical to the all-edge flat-hub run at
// every cut point, with the per-site auto chooser, and under a scripted
// linkdown/degrade fault plan — across repeats, so the equivalence is a
// property of the system, not of one lucky schedule. Splitting the forward
// moves compute and bytes, never detections.
func TestClusterSplitEquivalence(t *testing.T) {
	baseline := runFlatHubJSON(t)
	numLayers := len(trainedTestDetector(t).Network().Layers)

	// Every cut point, 0 (ship the raw input) through N (all edge). Under
	// -short only the structurally distinct cuts run: both extremes and one
	// mid-network split.
	cuts := make([]int, 0, numLayers+1)
	if testing.Short() {
		cuts = append(cuts, 0, numLayers/2, numLayers)
	} else {
		for k := 0; k <= numLayers; k++ {
			cuts = append(cuts, k)
		}
	}
	for _, k := range cuts {
		got, st := runSplitClusterJSON(t, 4, k)
		if string(got) != string(baseline) {
			t.Fatalf("cut %d: split cluster merged DB differs from all-edge flat run:\nsplit:\n%s\nflat:\n%s",
				k, got, baseline)
		}
		if k < numLayers {
			if st.Split.SplitBatches == 0 || st.Split.ActivationBytes == 0 {
				t.Fatalf("cut %d: no split activity recorded: %+v", k, st.Split)
			}
			if st.Split.Cut != k {
				t.Fatalf("cut %d: snapshot reports cut %d", k, st.Split.Cut)
			}
		} else if st.Split.SplitBatches != 0 || st.Split.ActivationBytes != 0 {
			t.Fatalf("all-edge cut shipped activations: %+v", st.Split)
		}
		if st.Split.Fallbacks != 0 {
			t.Fatalf("cut %d: fallbacks on a healthy uplink: %+v", k, st.Split)
		}
		// The cluster totals are the sums of what each site's own plane
		// reports.
		var activation, batches int64
		for _, ss := range st.Sites {
			activation += ss.Split.ActivationBytes
			batches += ss.Split.SplitBatches
		}
		if activation != st.Split.ActivationBytes || batches != st.Split.SplitBatches {
			t.Fatalf("cut %d: sites sum to %d activation bytes in %d split batches, cluster reports %+v",
				k, activation, batches, st.Split)
		}
	}

	// An unsplit site plane reports no split activity on any site.
	unsplit, st := runSitePlaneClusterJSON(t, WithClusterInference(trainedTestDetector(t), 4))
	if string(unsplit) != string(baseline) {
		t.Fatalf("batched cluster merged DB differs from all-edge flat run:\nbatched:\n%s\nflat:\n%s", unsplit, baseline)
	}
	for _, ss := range st.Sites {
		if ss.Split != (SplitStats{}) {
			t.Fatalf("site %s of an unsplit cluster reports split stats %+v", ss.Site, ss.Split)
		}
	}

	// Auto per-site tuning, twice: identical to the baseline and to itself.
	autoA, stA := runSplitClusterJSON(t, 4, SplitAuto)
	autoB, _ := runSplitClusterJSON(t, 4, SplitAuto)
	if string(autoA) != string(baseline) {
		t.Fatalf("auto-cut split cluster differs from all-edge flat run:\nsplit:\n%s\nflat:\n%s", autoA, baseline)
	}
	if string(autoA) != string(autoB) {
		t.Fatal("auto-cut split cluster differs between identical runs")
	}
	if stA.Split.NumLayers != numLayers {
		t.Fatalf("auto snapshot NumLayers %d, want %d", stA.Split.NumLayers, numLayers)
	}

	// Scripted faults on the activation path: site1's uplink partitions and
	// heals mid-run, site0's degrades 8x (moving the auto chooser's
	// bottleneck). Faults cost fallback recomputes and cut moves — never
	// results. Two runs pin determinism under the plan.
	plan := "linkdown:site1:cam-south@3;linkup:site1:cam-south@8;degrade:site0:cam-north@4:8"
	for _, cut := range []int{2, SplitAuto} {
		var prev []byte
		for rep := 0; rep < 2; rep++ {
			p, err := ParseFaultPlan(plan)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := runSplitClusterJSON(t, 4, cut, WithFaultPlan(p))
			if string(got) != string(baseline) {
				t.Fatalf("cut %d rep %d: faulted split cluster differs from all-edge flat run:\nsplit:\n%s\nflat:\n%s",
					cut, rep, got, baseline)
			}
			if prev != nil && string(got) != string(prev) {
				t.Fatalf("cut %d: faulted split cluster differs between identical runs", cut)
			}
			prev = got
		}
	}
}

// TestClusterSplitUplinkMetering pins that activations actually cross the
// metered uplink: a mid-network split run ships strictly more uplink bytes
// than the all-edge configuration, by exactly the activation record total.
func TestClusterSplitUplinkMetering(t *testing.T) {
	_, edge := runSplitClusterJSON(t, 4, len(trainedTestDetector(t).Network().Layers))
	_, split := runSplitClusterJSON(t, 4, 2)
	extra := split.UplinkBytes - edge.UplinkBytes
	if split.Split.ActivationBytes == 0 || extra != split.Split.ActivationBytes {
		t.Fatalf("uplink grew by %d bytes, split shipped %d activation bytes",
			extra, split.Split.ActivationBytes)
	}
}
