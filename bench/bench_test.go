package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmoke runs all four workloads at the tiny smoke size, so tier-1 keeps
// the benchmark compiling, its correctness gate green and every declared
// metric emitted. It asserts nothing about how fast the run was: a timing or
// a deadline share only has to be a number, and counts and bytes have to be
// positive. With the traced runs (skipped under -short) it then checks what
// the workloads exist to separate: the encoder dominates edge_quiet, only
// edge_busy ships activations, archive_scan never touches the encoder.
func TestSmoke(t *testing.T) {
	modes := []bool{false, true}
	if testing.Short() {
		modes = modes[:1]
	}
	// What the run does, not how fast the box is: these are never 0.
	positive := map[string]bool{
		"frames_per_s": true, "frames_per_cpu_s": true,
		"alloc_bytes_per_frame": true, "hop_bytes_per_frame": true,
	}
	layers := map[string]map[string]float64{}
	for _, name := range workloadNames {
		e, err := setUp(name, 1, smokeSizes)
		if err != nil {
			t.Fatalf("%s: set-up: %v", name, err)
		}
		for _, traced := range modes {
			start := time.Now()
			r, err := measure(e, 0, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			t.Logf("%s traced=%v: %v", name, traced, time.Since(start).Round(time.Millisecond))
			if r.failed != 0 || r.attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", name, traced, r.failed, r.attempted, r.problems)
			}
			for _, d := range r.metrics.defs {
				if d.Name == "setup_s" {
					continue // added by runWorkload around the timed set-up
				}
				// A layer the workload does not reach reads 0; every workload
				// reports every end-to-end metric.
				v, ok := r.metrics.values[d.Name]
				if (!ok && !traced) || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s missing or not finite (%v)", name, traced, d.Name, v)
				}
				if positive[d.Name] && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, d.Name, v)
				}
			}
			if traced {
				layers[name] = r.metrics.values
				if len(r.spans) == 0 {
					t.Errorf("%s: traced run recorded no replay spans", name)
				}
			}
		}
	}
	if testing.Short() {
		return
	}
	for name, m := range layers {
		act := m["cluster.uplink_activation_bytes"]
		if (name == edgeBusy) != (act > 0) {
			t.Errorf("%s: cluster.uplink_activation_bytes = %v", name, act)
		}
	}
	if enc := layers[archiveScan]["codec.encode_p_ns_per_frame"] + layers[archiveScan]["codec.encode_i_ns_per_frame"]; enc != 0 {
		t.Errorf("archive_scan spent %v ns in the encoder", enc)
	}
	q := layers[edgeQuiet]
	if q["codec.encode_p_ns_per_frame"] < 10*q["container.write_ns_per_frame"] {
		t.Errorf("edge_quiet: encoder (%v ns) does not dominate the container writer (%v ns)",
			q["codec.encode_p_ns_per_frame"], q["container.write_ns_per_frame"])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in spec.go one
// definition: same workloads, same metric names, units, directions, bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, spec.go says %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", b.Paths)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: %q / %q differs from spec.go", i, w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, spec.go says %+v", i, m, d)
		}
		if kindOf(m.Name) != kindMeasured {
			t.Errorf("end-to-end metric %s is %s", m.Name, kindOf(m.Name))
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, spec.go says %+v", i, m, d)
		}
	}
}

func TestRefusesModelledEndToEnd(t *testing.T) {
	metricKind["frames_per_s"] = kindModelled
	defer delete(metricKind, "frames_per_s")
	defer func() {
		if recover() == nil {
			t.Error("a modelled value was accepted under an end-to-end name")
		}
	}()
	newMetricSet(endToEnd).put("frames_per_s", 1, 0)
}

// TestQuartiles checks the quartile rule against values computed with
// Python's statistics.quantiles(values, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 12, 11, 15, 14, 13, 19, 17, 16, 18})
	if q1 != 11.75 || q2 != 14.5 || q3 != 17.25 {
		t.Errorf("quartiles = %v %v %v, want 11.75 14.5 17.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	mj := func(vs ...float64) *metricJSON {
		m := &metricJSON{Values: vs}
		m.Q1, m.Median, m.Q3 = quartiles(vs)
		m.Spread = relSpread(vs)
		return m
	}
	higher := metricDef{"frames_per_s", "frames/s", "higher", 0.10}
	lower := metricDef{"frame_latency_ms_p50", "ms", "lower", 0.10}
	steady := mj(100, 101, 99, 100, 100)
	for _, c := range []struct {
		name string
		d    metricDef
		base *metricJSON
		cur  *metricJSON
		want string
	}{
		{"slower throughput", higher, steady, mj(85, 86, 84, 85, 85), verdictWorse},
		{"faster throughput", higher, steady, mj(120, 121, 119, 120, 120), verdictBetter},
		{"within bound", higher, steady, mj(95, 96, 94, 95, 95), verdictSame},
		{"latency up", lower, steady, mj(120, 121, 119, 120, 120), verdictWorse},
		{"latency down", lower, steady, mj(80, 81, 79, 80, 80), verdictBetter},
		{"noisy base", higher, mj(60, 100, 140, 80, 120), mj(95, 96, 94, 95, 95), verdictUnresolved},
		{"noisy base, every run better", higher, mj(60, 100, 140, 80, 120), mj(150, 151, 152, 150, 150), verdictBetter},
	} {
		if got, _ := judge(c.d, c.base, c.cur); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
