package main

import (
	"fmt"
	"time"
)

// Workload names are normative: later issues and BENCHMARK.json refer to
// them.
const (
	edgeQuiet   = "edge_quiet"
	edgeBusy    = "edge_busy"
	archiveScan = "archive_scan"
	wirePaced   = "wire_paced"
)

var workloadNames = []string{edgeQuiet, edgeBusy, archiveScan, wirePaced}

// workloadWhy is the one-line rationale BENCHMARK.json carries per workload.
var workloadWhy = map[string]string{
	edgeQuiet:   "closed loop, 1 site, filter rate 0.96: the paper's operating point, the encoder does >85% of the work, nn <5%",
	edgeBusy:    "closed loop, 2 sites, filter rate 0.75, split forward over the uplink: I-decode, nn, SVAR ship, delta sync and merge are hot",
	archiveScan: "closed loop, seek I-frames of an archive and detect: the read side (container.Reader, IFrameDecoder, nn, ResultsDB.Query), no encoder",
	wirePaced:   "open loop, 2 cameras x 20 fps over loopback TCP: the only workload where work waits (wire, ingest queue, acks), latency from due time",
}

// metricDef describes one named metric. Bound is the share of the base
// median an end-to-end metric may worsen by before it counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them, measured with tracing off; none is ever 0 and none comes
// from a model (see metricSet.put).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"frames_per_s", "frames/s", "higher", 0.25},
	{"frames_per_cpu_s", "frames/CPU-s", "higher", 0.25},
	{"alloc_bytes_per_frame", "B/frame", "lower", 0.10},
	{"retained_mb", "MB", "lower", 0.10},
	{"hop_bytes_per_frame", "B/frame", "lower", 0.05},
	{"frame_latency_ms_p50", "ms", "lower", 0.25},
	{"detect_latency_ms_p50", "ms", "lower", 0.25},
	{"deadline_met_share", "share", "higher", 0.02},
}

// perLayer lists the metrics of single layers, in the order they print.
// Layers are the repo's modules; a workload that does not reach a layer
// reports 0 for it.
var perLayer = []metricDef{
	{"codec.encode_p_ns_per_frame", "ns", "lower", 0},
	{"codec.encode_i_ns_per_frame", "ns", "lower", 0},
	{"codec.frames", "count", "higher", 0},
	{"codec.iframes", "count", "lower", 0},
	{"codec.filter_rate", "share", "higher", 0},
	{"codec.payload_bytes_per_frame", "B/frame", "lower", 0},
	{"codec.idecode_ns_per_iframe", "ns", "lower", 0},
	{"codec.decode_ns_per_frame", "ns", "lower", 0},
	{"transform.fdct_ns_per_block", "ns", "lower", 0},
	{"transform.idct_ns_per_block", "ns", "lower", 0},
	{"transform.quant_ns_per_block", "ns", "lower", 0},
	{"transform.blocks_per_frame", "count", "lower", 0},
	{"frame.sad16_ns_per_call", "ns", "lower", 0},
	{"bitstream.write_ue_ns", "ns", "lower", 0},
	{"bitstream.read_ue_ns", "ns", "lower", 0},
	{"container.write_ns_per_frame", "ns", "lower", 0},
	{"container.close_ns", "ns", "lower", 0},
	{"container.alloc_bytes_per_frame", "B/frame", "lower", 0},
	{"container.open_ns", "ns", "lower", 0},
	{"container.payload_ns_per_iframe", "ns", "lower", 0},
	{"nn.forward_ns_per_frame", "ns", "lower", 0},
	{"nn.split_edge_ns_per_frame", "ns", "lower", 0},
	{"nn.split_cloud_ns_per_frame", "ns", "lower", 0},
	{"nn.svar_bytes_per_frame", "B/frame", "lower", 0},
	{"nn.svar_codec_ns_per_frame", "ns", "lower", 0},
	{"infer.batches", "count", "lower", 0},
	{"infer.batch_fill", "share", "higher", 0},
	{"infer.wait_ns_per_iframe", "ns", "lower", 0},
	{"store.put_ns_per_detection", "ns", "lower", 0},
	{"store.delta_ns_per_sync", "ns", "lower", 0},
	{"store.edge_put_ns_per_stream", "ns", "lower", 0},
	{"store.query_ns_p50", "ns", "lower", 0},
	{"store.merged_entries", "count", "higher", 0},
	{"cluster.ship_ns_per_detection", "ns", "lower", 0},
	{"cluster.ship_delta_ns_per_sync", "ns", "lower", 0},
	{"cluster.merge_ns", "ns", "lower", 0},
	{"cluster.delta_syncs", "count", "lower", 0},
	{"cluster.uplink_detection_bytes", "B", "lower", 0},
	{"cluster.uplink_activation_bytes", "B", "lower", 0},
	{"cluster.uplink_busy_modelled_s", "s", "lower", 0},
	{"cluster.view_lag_frames_p50", "frames", "lower", 0},
	{"wire.write_ns_per_frame", "ns", "lower", 0},
	{"wire.read_ns_per_frame", "ns", "lower", 0},
	{"wire.bytes_per_frame", "B/frame", "lower", 0},
	{"ingest.frames_received", "count", "higher", 0},
	{"ingest.duplicates", "count", "lower", 0},
	{"ingest.shed", "count", "lower", 0},
	{"ingest.acks_sent", "count", "higher", 0},
	{"pusher.attempts", "count", "lower", 0},
	{"ingest.frame_latency_ms_p90", "ms", "lower", 0},
	{"ingest.frame_latency_ms_p99", "ms", "lower", 0},
	{"ingest.detect_latency_ms_p90", "ms", "lower", 0},
	{"ingest.generator_late_ms_p99", "ms", "lower", 0},
	{"ingest.deadline_miss_share", "share", "lower", 0},
	{"archive.decode_frames_per_s", "frames/s", "higher", 0},
	{"sieve.glue_ns_per_frame", "ns", "lower", 0},
	{"sieve.cpu_busy_share", "share", "higher", 0},
	{"sieve.stage_pull_ns", "ns", "lower", 0},
	{"sieve.stage_encode_ns", "ns", "lower", 0},
	{"sieve.stage_infer_ns", "ns", "lower", 0},
	{"sieve.stage_ship_ns", "ns", "lower", 0},
	{"sieve.stage_merge_ns", "ns", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_cpu_share", "share", "lower", 0},
	{"trace_overhead_share", "share", "lower", 0},
}

// Metric kinds. Everything is measured unless labelled otherwise: a
// modelled value comes from a model inside the system (the virtual uplink
// is accounted, never slept on), a derived one from arithmetic on the
// workload's geometry.
const (
	kindMeasured = "measured"
	kindModelled = "modelled"
	kindDerived  = "derived"
)

var metricKind = map[string]string{
	"cluster.uplink_busy_modelled_s": kindModelled,
	"transform.blocks_per_frame":     kindDerived,
}

func kindOf(name string) string {
	if k, ok := metricKind[name]; ok {
		return k
	}
	return kindMeasured
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.Name == name {
			return true
		}
	}
	return false
}

// metricSet collects one run's readings of one table (endToEnd or perLayer).
type metricSet struct {
	defs   []metricDef
	values map[string]float64
	// n is the sample count behind a value (0 = a single reading).
	n map[string]int
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}, n: map[string]int{}}
}

// put records a reading. It refuses a name the table does not declare and a
// modelled value under an end-to-end name: both are bugs in the benchmark.
func (m *metricSet) put(name string, v float64, samples int) {
	known := false
	for _, d := range m.defs {
		if d.Name == name {
			known = true
			break
		}
	}
	if !known {
		panic(fmt.Sprintf("bench: metric %q is not declared in its table", name))
	}
	if isEndToEnd(name) && kindOf(name) != kindMeasured {
		panic(fmt.Sprintf("bench: refusing to emit %s value under end-to-end name %q", kindOf(name), name))
	}
	m.values[name] = v
	m.n[name] = samples
}

// sizes fixes how much work one pass of each workload does. The driver's
// sizes are the benchmark; smoke sizes keep `go test` under ten seconds.
type sizes struct {
	clipFrames int // pre-rendered frames per scene

	quietFeeds, quietFrames, quietGOP int
	busyFeeds, busyFrames, busyGOP    int
	scanStreams, scanFrames           int
	scanQueries                       int
	wireCams, wireFPS, wireGOP        int
	// wireFrames overrides frames per camera (0 = fps x seconds).
	wireFrames int
	// setupReps is how often set-up runs (the median is reported).
	setupReps int
	// minPasses is the least number of passes a closed-loop run makes,
	// however short --seconds is.
	minPasses int
	// tracedPasses is the least number of traced passes — and of the
	// untraced ones they alternate with — behind trace_overhead_share.
	tracedPasses int
	// pinned reports that exact counts of this size are recorded in
	// expected.json.
	pinned bool
}

var fullSizes = sizes{
	clipFrames: 100,
	quietFeeds: 4, quietFrames: 50, quietGOP: 25,
	busyFeeds: 4, busyFrames: 100, busyGOP: 4,
	scanStreams: 4, scanFrames: 100, scanQueries: 1000,
	wireCams: 2, wireFPS: 20, wireGOP: 10,
	setupReps: 3, minPasses: 3, tracedPasses: 3,
	pinned: true,
}

var smokeSizes = sizes{
	clipFrames: 16,
	quietFeeds: 2, quietFrames: 8, quietGOP: 4,
	busyFeeds: 4, busyFrames: 8, busyGOP: 4,
	scanStreams: 4, scanFrames: 16, scanQueries: 50,
	// 2 x 10 fps is under a quarter of what the box encodes, which leaves
	// headroom where the test runs several times slower (the race detector).
	wireCams: 2, wireFPS: 10, wireGOP: 3, wireFrames: 6,
	setupReps: 1, minPasses: 2, tracedPasses: 1,
}

// passes is the least number of passes of a closed-loop run: a traced run
// alternates untraced and traced passes.
func (sz sizes) passes(traced bool) int {
	if traced {
		return 2 * sz.tracedPasses
	}
	return sz.minPasses
}

// Latency limits behind deadline_met_share. The open-loop workload has the
// fixed 100 ms of a live view. The closed-loop workloads are throughput
// jobs — nobody watches a frame, and the archive scanner holds one until its
// batch of 16 is full — so their limit only catches a frame that got stuck.
const (
	liveDeadline  = 100 * time.Millisecond
	batchDeadline = time.Second
)

// defaultSeconds is run_seconds in BENCHMARK.json; expected.json pins
// wire_paced counts (which scale with the run length) at this value.
const defaultSeconds = 15
