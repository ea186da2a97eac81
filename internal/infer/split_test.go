package infer

import (
	"context"
	"errors"
	"sync"
	"testing"

	"sieve/internal/labels"
	"sieve/internal/telemetry"
)

// runSplitClients pushes rounds of frames from n concurrent clients
// through p and checks every result against direct per-frame detection.
func runSplitClients(t *testing.T, p *Plane, n, rounds int) {
	t.Helper()
	det := p.Detector()
	want := make([]labels.Set, n)
	for i := range want {
		want[i] = det.FrameLabels(testFrame(byte(10 + i)))
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		c := p.Register()
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				got, err := c.Infer(context.Background(), testFrame(byte(10+i)))
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(want[i]) {
					t.Errorf("client %d round %d: %v != %v", i, j, got, want[i])
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
}

// TestSplitPlaneMatchesDirectDetection pins the split plane's result
// contract: with a mid-network cut and a healthy ship hook, every label
// set matches per-frame detection, and the split counters account the
// shipped activations.
func TestSplitPlaneMatchesDirectDetection(t *testing.T) {
	det := testDetector()
	mid := len(det.Network().Layers) / 2
	var mu sync.Mutex
	var shipped int64
	p := NewSplit(det, 3, Split{
		Cut: func() int { return mid },
		Ship: func(rec []byte) error {
			mu.Lock()
			shipped += int64(len(rec))
			mu.Unlock()
			return nil
		},
	}, telemetry.NewRegistry())
	runSplitClients(t, p, 4, 5)
	st := p.SplitStats()
	if st.SplitBatches == 0 || st.Fallbacks != 0 {
		t.Fatalf("split stats %+v, want split batches and no fallbacks", st)
	}
	mu.Lock()
	total := shipped
	mu.Unlock()
	if st.ActivationBytes != total || total == 0 {
		t.Fatalf("activation bytes %d, ship hook saw %d", st.ActivationBytes, total)
	}
	if st.Cut != mid || st.NumLayers != len(det.Network().Layers) {
		t.Fatalf("cut %d/%d, want %d/%d", st.Cut, st.NumLayers, mid, len(det.Network().Layers))
	}
	if st.EdgeTime <= 0 || st.CloudTime <= 0 {
		t.Fatalf("modelled tier times %v/%v, want both positive", st.EdgeTime, st.CloudTime)
	}
}

// TestSplitPlaneFallsBackOnShipFailure: a dead uplink never changes
// results — every batch recomputes on the edge and the fallback counter
// says so.
func TestSplitPlaneFallsBackOnShipFailure(t *testing.T) {
	det := testDetector()
	down := errors.New("uplink down")
	p := NewSplit(det, 2, Split{
		Cut:  func() int { return 2 },
		Ship: func([]byte) error { return down },
	}, telemetry.NewRegistry())
	runSplitClients(t, p, 4, 3)
	st := p.SplitStats()
	if st.Fallbacks == 0 || st.SplitBatches != 0 || st.ActivationBytes != 0 {
		t.Fatalf("split stats %+v, want only fallbacks", st)
	}
	if st.Cut != st.NumLayers {
		t.Fatalf("cut %d after fallback, want all-edge %d", st.Cut, st.NumLayers)
	}
}

// TestSplitPlaneClampsCut: out-of-range cut decisions clamp instead of
// crashing — negative to 0 (ship the raw input), past-the-end to all-edge
// (nothing shipped at all).
func TestSplitPlaneClampsCut(t *testing.T) {
	det := testDetector()
	for _, tc := range []struct {
		name    string
		cut     int
		allEdge bool
	}{
		{"negative ships input", -5, false},
		{"past the end stays on edge", len(det.Network().Layers) + 7, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var ships int
			p := NewSplit(det, 2, Split{
				Cut: func() int { return tc.cut },
				Ship: func([]byte) error {
					mu.Lock()
					ships++
					mu.Unlock()
					return nil
				},
			}, telemetry.NewRegistry())
			runSplitClients(t, p, 2, 2)
			st := p.SplitStats()
			mu.Lock()
			n := ships
			mu.Unlock()
			if tc.allEdge && (n != 0 || st.SplitBatches != 0 || st.Cut != st.NumLayers) {
				t.Fatalf("all-edge clamp leaked: ships %d, stats %+v", n, st)
			}
			if !tc.allEdge && (n == 0 || st.Cut != 0) {
				t.Fatalf("cut-0 clamp: ships %d, stats %+v", n, st)
			}
		})
	}
}

// TestSplitPlaneNilHooksDegradeToPlain: a Split with nil hooks behaves
// exactly like New — no ship, no split accounting, identical results.
func TestSplitPlaneNilHooksDegradeToPlain(t *testing.T) {
	p := NewSplit(testDetector(), 2, Split{}, telemetry.NewRegistry())
	runSplitClients(t, p, 3, 3)
	st := p.SplitStats()
	if st.SplitBatches != 0 || st.Fallbacks != 0 || st.ActivationBytes != 0 {
		t.Fatalf("nil-hook plane recorded split activity: %+v", st)
	}
	if bst := p.Stats(); bst.Frames != 9 {
		t.Fatalf("frames %d, want 9", bst.Frames)
	}
}

// TestSplitPlaneRegistersInOwnerRegistry: a split plane's counters are the
// series it registered at construction in its owner's registry, under the
// owner's labels — every Stats and SplitStats field reads the same value
// as its series, before any traffic and after.
func TestSplitPlaneRegistersInOwnerRegistry(t *testing.T) {
	det := testDetector()
	reg := telemetry.NewRegistry()
	lbl := telemetry.L("site", "site0")
	p := NewSplit(det, 1, Split{
		Cut:  func() int { return 1 },
		Ship: func([]byte) error { return nil },
	}, reg, lbl)
	check := func(when string) {
		t.Helper()
		st, sp := p.Stats(), p.SplitStats()
		for _, c := range []struct {
			key  string
			got  int64
			want int64
		}{
			{"sieve_infer_batches_total", reg.Counter("sieve_infer_batches_total", lbl).Value(), st.Batches},
			{"sieve_infer_frames_total", reg.Counter("sieve_infer_frames_total", lbl).Value(), st.Frames},
			{"sieve_infer_max_batch", reg.Gauge("sieve_infer_max_batch", lbl).Value(), int64(st.MaxBatch)},
			{"sieve_infer_split_batches_total", reg.Counter("sieve_infer_split_batches_total", lbl).Value(), sp.SplitBatches},
			{"sieve_infer_split_fallbacks_total", reg.Counter("sieve_infer_split_fallbacks_total", lbl).Value(), sp.Fallbacks},
			{"sieve_infer_split_activation_bytes_total", reg.Counter("sieve_infer_split_activation_bytes_total", lbl).Value(), sp.ActivationBytes},
			{"sieve_infer_split_edge_ns_total", reg.Counter("sieve_infer_split_edge_ns_total", lbl).Value(), int64(sp.EdgeTime)},
			{"sieve_infer_split_cloud_ns_total", reg.Counter("sieve_infer_split_cloud_ns_total", lbl).Value(), int64(sp.CloudTime)},
			{"sieve_infer_split_cut", reg.Gauge("sieve_infer_split_cut", lbl).Value(), int64(sp.Cut)},
		} {
			if c.got != c.want {
				t.Fatalf("%s: %s = %d, Stats view says %d", when, c.key, c.got, c.want)
			}
		}
	}
	check("before traffic")
	if got, want := p.SplitStats().Cut, len(det.Network().Layers); got != want {
		t.Fatalf("cut before traffic %d, want all-edge %d", got, want)
	}
	runSplitClients(t, p, 1, 3)
	check("after traffic")
	if st := p.SplitStats(); st.SplitBatches != 3 || st.Cut != 1 || st.ActivationBytes == 0 {
		t.Fatalf("split stats after 3 split batches: %+v", st)
	}
	if n := len(reg.Snapshot().Counters) + len(reg.Snapshot().Gauges); n != 9 {
		t.Fatalf("registry holds %d series, want the plane's 9", n)
	}
}

// TestSplitPlaneDynamicCut: the Cut hook is consulted per flush, so a
// moving bottleneck (changing hook value) changes where later batches
// split without touching earlier results.
func TestSplitPlaneDynamicCut(t *testing.T) {
	det := testDetector()
	n := len(det.Network().Layers)
	var mu sync.Mutex
	cut := 1
	p := NewSplit(det, 1, Split{
		Cut: func() int {
			mu.Lock()
			defer mu.Unlock()
			return cut
		},
		Ship: func([]byte) error { return nil },
	}, telemetry.NewRegistry())
	runSplitClients(t, p, 1, 2)
	if st := p.SplitStats(); st.Cut != 1 {
		t.Fatalf("cut %d, want 1", st.Cut)
	}
	mu.Lock()
	cut = n // bandwidth collapsed: stay on the edge
	mu.Unlock()
	runSplitClients(t, p, 1, 2)
	st := p.SplitStats()
	if st.Cut != n || st.SplitBatches != 2 {
		t.Fatalf("after cut move: %+v, want cut %d and still 2 split batches", st, n)
	}
}
