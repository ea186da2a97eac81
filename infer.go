package sieve

import "sieve/internal/infer"

// InferenceStats are a plane's batching counters: forward passes run,
// frames inferred across them, and the largest batch, with MeanBatch() as
// the amortisation factor.
type InferenceStats = infer.Stats

// InferencePlane is the shared batched-inference plane: sessions configured
// with WithInferencePlane (or a Hub with WithHubInference, a Cluster with
// WithClusterInference) submit their I-frames to it and block until
// their labels come back; the plane coalesces submissions from concurrent
// feeds into micro-batches through one YOLite forward pass.
//
// Batches flush on counts, never timers — at BatchSize frames, or as soon
// as every registered submitter is blocked waiting — so runs stay
// deterministic under VirtualClock and fixed seeds. The batched forward is
// element-identical to per-frame detection, so a batched run's results
// (event labels, ResultsDB contents) are byte-identical to the per-frame
// path no matter how frames were grouped; only the amortisation counters
// reported by Stats depend on scheduling.
//
// One plane serialises its forward passes; create one per edge site (what
// Cluster does) to scale out.
type InferencePlane struct {
	p *infer.Plane
}

// NewInferencePlane builds a plane over det flushing at batchSize frames
// (values < 1 are clamped to 1, the trivial per-frame plane).
func NewInferencePlane(det *Detector, batchSize int) *InferencePlane {
	return &InferencePlane{p: infer.New(det, batchSize)}
}

// BatchSize returns the flush size.
func (ip *InferencePlane) BatchSize() int { return ip.p.BatchSize() }

// Detector returns the shared detector.
func (ip *InferencePlane) Detector() *Detector { return ip.p.Detector() }

// Stats returns a snapshot of the plane's batching counters.
func (ip *InferencePlane) Stats() InferenceStats { return ip.p.Stats() }

// SplitStats are a split plane's partitioned-execution counters: batches
// actually split across the uplink, edge fallbacks after ship failures,
// activation bytes shipped, modelled per-tier compute time, and the most
// recent cut (Cut == NumLayers reads as all-edge).
type SplitStats = infer.SplitStats

// SplitStats returns a snapshot of the plane's split counters; zero-valued
// (NumLayers == 0) for planes not built by WithSplitInference.
func (ip *InferencePlane) SplitStats() SplitStats { return ip.p.SplitStats() }
