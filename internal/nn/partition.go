package nn

import "time"

// Placement says where the layers of a network run.
type Placement struct {
	// SplitAfter is the index of the last layer executed on the edge; -1
	// means everything runs in the cloud, len(layers)-1 means everything on
	// the edge.
	SplitAfter int
	// EdgeTime and CloudTime are the modelled compute times per frame.
	EdgeTime, CloudTime time.Duration
	// TransferBytes is what crosses the edge→cloud link per frame.
	TransferBytes int64
	// TransferTime is the modelled link time per frame.
	TransferTime time.Duration
	// ReturnBytes is the cloud→edge detections record per frame — paid
	// whenever at least one layer runs in the cloud, zero for the all-edge
	// cut (the edge already holds its own detections).
	ReturnBytes int64
	// ReturnTime is the modelled link time of the return transfer.
	ReturnTime time.Duration
	// Latency is the modelled end-to-end time per frame, including the
	// detections' return trip.
	Latency time.Duration
}

// EdgeTierFLOPS and CloudTierFLOPS are the paper's two compute tiers as
// sustained rates (FLOP/s): the 1 GFLOP/s edge desktop and the 3 GFLOP/s
// cloud Xeon. Every modelled tier time in the system is priced at them.
const (
	EdgeTierFLOPS  = 1e9
	CloudTierFLOPS = 3e9
)

// Env models the two compute tiers and the link between them —
// the inputs of the Neurosurgeon-style partitioning decision the paper's
// NN Deployment service makes.
type Env struct {
	// EdgeFLOPS and CloudFLOPS are sustained floating-point rates.
	EdgeFLOPS, CloudFLOPS float64
	// BandwidthBps is the edge→cloud link rate in bits per second.
	BandwidthBps float64
	// InputBytes is the wire size of the NN input if the cut is before
	// layer 0 (the cloud-only case ships the input frame).
	InputBytes int64
	// ReturnBytes is the wire size of the detections record the cloud
	// sends back per frame. It is charged to every cut that runs at least
	// one layer in the cloud (0 = return transfer not modelled).
	ReturnBytes int64
}

// Partition evaluates every cut point and returns the latency-minimising
// placement. Cut k means layers [0..k] run on the edge, layers (k..n) in the
// cloud, with the k-th layer's output shipped over the link. k = -1 ships
// the raw input to the cloud. Equal-latency ties break deterministically
// toward the smaller TransferBytes (then the earlier cut), so the choice
// never depends on evaluation order.
func Partition(n *Network, env Env) Placement {
	return PartitionStats(n.Stats(), env)
}

// PartitionStats is Partition over a precomputed layer profile — the
// allocation-free variant for callers that re-evaluate the cut as observed
// bandwidth moves (n.Stats() allocates; the profile does not change).
func PartitionStats(stats []LayerStats, env Env) Placement {
	best := evalCut(stats, -1, env)
	for k := range stats {
		p := evalCut(stats, k, env)
		if p.Latency < best.Latency ||
			(p.Latency == best.Latency && p.TransferBytes < best.TransferBytes) {
			best = p
		}
	}
	return best
}

func evalCut(stats []LayerStats, cut int, env Env) Placement {
	var edgeFLOPs, cloudFLOPs int64
	for i, s := range stats {
		if i <= cut {
			edgeFLOPs += s.FLOPs
		} else {
			cloudFLOPs += s.FLOPs
		}
	}
	transfer := env.InputBytes
	if cut >= 0 {
		transfer = stats[cut].OutBytes
	}
	p := Placement{
		SplitAfter:    cut,
		EdgeTime:      flopsTime(edgeFLOPs, env.EdgeFLOPS),
		CloudTime:     flopsTime(cloudFLOPs, env.CloudFLOPS),
		TransferBytes: transfer,
	}
	// The return transfer exists only when the cloud computes something:
	// the all-edge cut keeps its detections local.
	if cut < len(stats)-1 {
		p.ReturnBytes = env.ReturnBytes
	}
	if env.BandwidthBps > 0 {
		p.TransferTime = linkTime(transfer, env.BandwidthBps)
		p.ReturnTime = linkTime(p.ReturnBytes, env.BandwidthBps)
	}
	p.Latency = p.EdgeTime + p.TransferTime + p.CloudTime + p.ReturnTime
	return p
}

func linkTime(bytes int64, bps float64) time.Duration {
	return time.Duration(float64(bytes*8) / bps * float64(time.Second))
}

func flopsTime(flops int64, rate float64) time.Duration {
	if rate <= 0 || flops == 0 {
		return 0
	}
	return time.Duration(float64(flops) / rate * float64(time.Second))
}
