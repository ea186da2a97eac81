package sieve

import (
	"io"

	"sieve/internal/telemetry"
)

// Re-exported telemetry types (same alias pattern as the storage types in
// cluster.go: public names stay stable while internal/telemetry evolves).
type (
	// Registry is a set of pre-registered metric instruments (counters,
	// gauges, fixed-bucket histograms). Registration happens at
	// construction time; recording is lock-free and allocation-free, so
	// the registry costs the hot paths nothing. Every Session, Hub and
	// Cluster owns one, and each instrument is registered exactly once, in
	// its owner's registry, when the owner builds it: a hub's feeds,
	// inference plane and ingest listener register in the hub's, a
	// cluster's sites in the cluster's. Read it through the owner's
	// Telemetry() via Snapshot, WritePrometheus, or the -debug-addr HTTP
	// surface.
	Registry = telemetry.Registry
	// MetricLabel is one key=value dimension of a metric series.
	MetricLabel = telemetry.Label
	// MetricsSnapshot is a point-in-time copy of every registered series,
	// sorted by series key, with a Diff for interval metering.
	MetricsSnapshot = telemetry.Snapshot
	// Tracer records frame-anchored pipeline spans keyed by
	// (site, feed, frame, stage) and exports Chrome trace_event JSON
	// loadable in Perfetto / chrome://tracing. Timestamps come exclusively
	// from the injected clock: under a VirtualClock the exported trace is
	// byte-identical run to run; under the wall clock it is a real profile.
	Tracer = telemetry.Tracer
	// TraceStage names one pipeline stage in a trace (pull, encode,
	// filter, infer, ship, merge).
	TraceStage = telemetry.Stage
	// TraceSummary is the parsed, validated aggregate of a Chrome trace
	// file — what `sieve trace` prints.
	TraceSummary = telemetry.TraceSummary
)

// NewTracer returns a tracer reading span timestamps from clk (the wall
// clock when clk is nil). Attach it with WithHubTrace / WithClusterTrace
// and export with Tracer.WriteChrome. A nil *Tracer is a valid no-op recorder,
// so code paths need no "tracing enabled" branches.
func NewTracer(clk Clock) *Tracer {
	if clk == nil {
		clk = RealClock()
	}
	return telemetry.NewTracer(clk)
}

// SummarizeChromeTrace parses and validates Chrome trace_event JSON
// produced by Tracer.WriteChrome and aggregates it per stage.
func SummarizeChromeTrace(r io.Reader) (TraceSummary, error) {
	return telemetry.SummarizeChrome(r)
}

// frameBytesBounds are the sieve_frame_bytes histogram buckets: encoded
// frame payloads range from tens of bytes (fully predicted P-frames) to
// hundreds of KB (high-entropy I-frames).
var frameBytesBounds = []int64{64, 256, 1024, 4096, 16384, 65536, 262144}

// feedSeriesLabels builds the label set for a session's per-feed series:
// always {feed}, plus {site} when the session runs under a cluster site.
func feedSeriesLabels(site, feed string) []MetricLabel {
	if site == "" {
		return []MetricLabel{telemetry.L("feed", feed)}
	}
	return []MetricLabel{telemetry.L("feed", feed), telemetry.L("site", site)}
}

// describeSessionMetrics attaches HELP text for the per-feed families.
// Describe is idempotent, so every session registering into a shared
// registry may call it.
func describeSessionMetrics(reg *Registry) {
	reg.Describe("sieve_frames_total", "frames accepted by the semantic encoder")
	reg.Describe("sieve_iframes_total", "frames the encoder placed as I-frames (candidate events)")
	reg.Describe("sieve_payload_bytes_total", "encoded stream payload bytes")
	reg.Describe("sieve_detections_total", "detector invocations (one per I-frame when inference is configured)")
	reg.Describe("sieve_frame_bytes", "encoded frame payload size distribution")
}
