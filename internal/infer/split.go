// Split-aware plane: the scheduler half of edge/cloud partitioned
// inference. A plane built with NewSplit asks its Cut hook where to split
// each flushed batch's forward pass — edge layers [0,k), activation record
// over the uplink via Ship, cloud layers [k,N) — and falls back to all-edge
// execution for any batch whose activation the uplink refuses. Because the
// split forward is element-identical to the plain one (see
// nn.ForwardBatchRange and the activation codec's bit-exact round trip),
// split planes keep the Plane determinism contract: results are
// byte-identical to the all-edge path at every cut, under every fault.
package infer

import (
	"time"

	"sieve/internal/nn"
	"sieve/internal/telemetry"
)

// Split configures the partitioned execution of a plane's forward passes.
type Split struct {
	// Cut returns the partition point for the next batch: the edge runs
	// layers [0, Cut()), the cloud the rest. Values are clamped to
	// [0, numLayers]; numLayers (or more) keeps the batch on the edge.
	// Called once per batch by the combiner — implementations may keep
	// unsynchronised state, combiners are mutex-ordered. nil pins the
	// plane to all-edge.
	Cut func() int
	// Ship transfers one activation wire record to the cloud executor.
	// An error (typically a partitioned uplink) makes the plane recompute
	// that batch entirely on the edge. nil pins the plane to all-edge.
	Ship func(rec []byte) error
	// EdgeFLOPS and CloudFLOPS are the modelled sustained rates behind the
	// sieve_infer_split_{edge,cloud}_ns_total instruments. The times are
	// derived from per-layer FLOPs — never the wall clock — so split runs
	// stay deterministic. 0 disables the corresponding instrument.
	EdgeFLOPS, CloudFLOPS float64
}

// SplitStats is a snapshot of a split plane's counters.
type SplitStats struct {
	// SplitBatches counts batches whose forward actually split (activation
	// shipped and cloud half run); Fallbacks counts batches recomputed on
	// the edge after the uplink refused their activation.
	SplitBatches, Fallbacks int64
	// ActivationBytes totals the activation records shipped.
	ActivationBytes int64
	// EdgeTime and CloudTime are the modelled per-tier compute times
	// accumulated over split batches (FLOPs at the configured rates).
	EdgeTime, CloudTime time.Duration
	// Cut is the most recently executed partition point (layers on the
	// edge); NumLayers the network depth, so Cut == NumLayers reads as
	// all-edge.
	Cut, NumLayers int
}

// splitState is the plane-side execution state for a Split config: the
// hooks, the per-cut cumulative FLOPs table (computed once — the profile
// is static), and the telemetry instruments, registered by NewSplit in the
// same registry as the batching counters.
type splitState struct {
	cut  func() int
	ship func(rec []byte) error

	// cumFLOPs[k] is the cost of layers [0,k); len == numLayers+1.
	cumFLOPs  []int64
	edgeRate  float64
	cloudRate float64

	splitBatches *telemetry.Counter
	fallbacks    *telemetry.Counter
	actBytes     *telemetry.Counter
	edgeNs       *telemetry.Counter
	cloudNs      *telemetry.Counter
	cutGauge     *telemetry.Gauge
}

// NewSplit builds a plane over det whose flushed batches execute under the
// given split configuration. With a nil Cut or Ship hook the plane behaves
// exactly like New (all-edge). Besides New's series, the split counters
// are registered in reg as the sieve_infer_split_* families.
func NewSplit(det *nn.YOLite, batchSize int, sp Split, reg *telemetry.Registry, lbls ...telemetry.Label) *Plane {
	p := New(det, batchSize, reg, lbls...)
	reg.Describe("sieve_infer_split_batches_total", "batches whose forward split across the uplink (edge layers, activation ship, cloud layers)")
	reg.Describe("sieve_infer_split_fallbacks_total", "split batches recomputed on the edge after the uplink refused their activation")
	reg.Describe("sieve_infer_split_activation_bytes_total", "activation record bytes shipped edge-to-cloud")
	reg.Describe("sieve_infer_split_edge_ns_total", "modelled edge-tier compute time of split batches (FLOPs at the configured rate)")
	reg.Describe("sieve_infer_split_cloud_ns_total", "modelled cloud-tier compute time of split batches (FLOPs at the configured rate)")
	reg.Describe("sieve_infer_split_cut", "current partition point: layers executed on the edge")
	stats := det.Network().Stats()
	cum := make([]int64, len(stats)+1)
	for i, s := range stats {
		cum[i+1] = cum[i] + s.FLOPs
	}
	p.split = &splitState{
		cut: sp.Cut, ship: sp.Ship,
		cumFLOPs: cum, edgeRate: sp.EdgeFLOPS, cloudRate: sp.CloudFLOPS,
		splitBatches: reg.Counter("sieve_infer_split_batches_total", lbls...),
		fallbacks:    reg.Counter("sieve_infer_split_fallbacks_total", lbls...),
		actBytes:     reg.Counter("sieve_infer_split_activation_bytes_total", lbls...),
		edgeNs:       reg.Counter("sieve_infer_split_edge_ns_total", lbls...),
		cloudNs:      reg.Counter("sieve_infer_split_cloud_ns_total", lbls...),
		cutGauge:     reg.Gauge("sieve_infer_split_cut", lbls...),
	}
	p.split.cutGauge.Set(int64(len(stats))) // all-edge until the first split flush
	return p
}

// numLayers is the depth of the plane's network (cuts clamp to it).
func (s *splitState) numLayers() int { return len(s.cumFLOPs) - 1 }

// nextCut asks the Cut hook for the next batch's partition point, clamped
// to [0, numLayers]. Called by the combiner only.
func (s *splitState) nextCut() int {
	n := s.numLayers()
	if s.cut == nil || s.ship == nil {
		return n
	}
	k := s.cut()
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// record folds one flushed batch's SplitInfo into the instruments. Called
// with the plane mutex held, via the pointers bound at construction — no
// registration on the record path.
func (s *splitState) record(info nn.SplitInfo, frames int) {
	s.cutGauge.Set(int64(info.Cut))
	if info.Fallback {
		s.fallbacks.Inc()
		return
	}
	if info.Cut >= s.numLayers() {
		return // all-edge batch: nothing shipped, no tier split to account
	}
	s.splitBatches.Inc()
	s.actBytes.Add(info.ActivationBytes)
	s.edgeNs.Add(modelNs(s.cumFLOPs[info.Cut], s.edgeRate) * int64(frames))
	s.cloudNs.Add(modelNs(s.cumFLOPs[s.numLayers()]-s.cumFLOPs[info.Cut], s.cloudRate) * int64(frames))
}

// modelNs converts a FLOPs count to modelled nanoseconds at rate FLOP/s.
func modelNs(flops int64, rate float64) int64 {
	if rate <= 0 || flops == 0 {
		return 0
	}
	return int64(float64(flops) / rate * 1e9)
}

// SplitStats returns a snapshot of the split counters (zero-valued with
// NumLayers == 0 for a plane built without NewSplit). Taken under the
// plane lock, like Stats.
func (p *Plane) SplitStats() SplitStats {
	if p.split == nil {
		return SplitStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return SplitStats{
		SplitBatches:    p.split.splitBatches.Value(),
		Fallbacks:       p.split.fallbacks.Value(),
		ActivationBytes: p.split.actBytes.Value(),
		EdgeTime:        time.Duration(p.split.edgeNs.Value()),
		CloudTime:       time.Duration(p.split.cloudNs.Value()),
		Cut:             int(p.split.cutGauge.Value()),
		NumLayers:       p.split.numLayers(),
	}
}
