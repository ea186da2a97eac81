package sieve

import "sieve/internal/infer"

// InferenceStats are a plane's batching counters: forward passes run,
// frames inferred across them, and the largest batch, with MeanBatch() as
// the amortisation factor.
type InferenceStats = infer.Stats

// SplitStats are a split plane's partitioned-execution counters: batches
// actually split across the uplink, edge fallbacks after ship failures,
// activation bytes shipped, modelled per-tier compute time, and the most
// recent cut (Cut == NumLayers reads as all-edge).
type SplitStats = infer.SplitStats
