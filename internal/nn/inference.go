package nn

import (
	"sieve/internal/frame"
	"sieve/internal/labels"
)

// Inference is a reusable inference context over a shared YOLite: it owns
// the input batch, the activation ping-pong buffers and the per-frame
// detection/label scratch, so repeated DetectBatch calls allocate nothing
// once capacities reach steady state. The underlying detector is read-only
// during inference, so any number of Inference contexts may share one
// YOLite; a single context is NOT safe for concurrent use (the inference
// plane serialises all batches through one).
type Inference struct {
	d       *YOLite
	in      Batch
	scratch BatchScratch
	dets    [][]Detection
	count   map[string]int
	best    map[string]float32
	names   []string
	// Split-forward state: the encoded activation record and the
	// cloud-side input it is decoded into. cloudIn is separate storage
	// (never the scratch) so the cloud half's ForwardBatchRange input does
	// not alias its ping-pong buffers.
	actBuf  []byte
	cloudIn Batch
}

// NewInference builds an inference context for d.
func NewInference(d *YOLite) *Inference {
	return &Inference{
		d:     d,
		count: make(map[string]int),
		best:  make(map[string]float32),
	}
}

// Detector returns the shared detector this context runs.
func (ic *Inference) Detector() *YOLite { return ic.d }

// DetectBatch converts every frame into one input batch, runs a single
// batched forward pass, and scans each item's probability grid: it is
// DetectBatchSplit with the whole pass on the edge. dst's per-item slices
// are reused (pass the previous return value back in); result i does not
// depend on the batch frames[i] rides in, so it is element-identical to
// d.Detect(frames[i]). Frames are only read during the call — the caller
// may reuse their buffers afterwards.
//
//sieve:noalloc steady state pinned to 0 allocs/op by batch_test.go
func (ic *Inference) DetectBatch(frames []*frame.YUV, dst [][]Detection) [][]Detection {
	dst, _ = ic.DetectBatchSplit(frames, dst, len(ic.d.net.Layers), nil)
	return dst
}

// SplitInfo reports how a split detect call actually executed.
type SplitInfo struct {
	// Cut is the effective partition point: the edge ran layers [0, Cut).
	// Cut == len(network layers) means the whole pass ran on the edge
	// (requested, or forced by a ship failure).
	Cut int
	// ActivationBytes is the size of the activation record shipped to the
	// cloud (0 when the pass stayed on the edge).
	ActivationBytes int64
	// Fallback reports that shipping the activation failed (uplink down)
	// and the batch was recomputed entirely on the edge.
	Fallback bool
}

// DetectBatchSplit is the detect path with the forward pass split at cut:
// the edge runs layers [0, cut), the resulting activation batch is
// serialized into an activation wire record and handed to ship, and on
// success the record is decoded back and layers [cut, N) run as the cloud
// half. The detections are element-identical at every cut — the same
// kernels run in the same order and the record transport is bit-exact.
// cut >= N (or a nil ship) runs the whole pass on the edge; cut <= 0 ships
// the raw input batch. If ship returns an error (a partitioned uplink), the
// batch is recomputed from the untouched input entirely on the edge, so a
// link fault costs time, never results.
//
//sieve:noalloc steady state pinned to 0 allocs/op by split_test.go
func (ic *Inference) DetectBatchSplit(frames []*frame.YUV, dst [][]Detection, cut int, ship func([]byte) error) ([][]Detection, SplitInfo) {
	nLayers := len(ic.d.net.Layers)
	info := SplitInfo{Cut: nLayers}
	for len(dst) < len(frames) {
		dst = append(dst, nil)
	}
	dst = dst[:len(frames)]
	if len(frames) == 0 {
		return dst, info
	}
	size := ic.d.InputSize
	ic.in.Reshape(len(frames), 3, size, size)
	for i, f := range frames {
		fromYUVInto(ic.in.Item(i), f, size)
	}
	var probs *Batch
	if cut = max(cut, 0); cut < nLayers && ship != nil {
		act := ic.d.net.ForwardBatchRange(&ic.in, &ic.scratch, 0, cut)
		ic.actBuf = AppendActivationRecord(ic.actBuf[:0], act)
		// A refused ship, or a record that does not decode (unreachable for
		// one encoded above), leaves probs nil: ic.in is untouched by the
		// range forward, so the whole batch reruns on the edge below.
		if ship(ic.actBuf) != nil || DecodeActivationRecord(ic.actBuf, &ic.cloudIn) != nil {
			info.Fallback = true
		} else {
			info.Cut, info.ActivationBytes = cut, int64(len(ic.actBuf))
			probs = ic.d.net.ForwardBatchRange(&ic.cloudIn, &ic.scratch, cut, nLayers)
		}
	}
	if probs == nil {
		probs = ic.d.net.ForwardBatch(&ic.in, &ic.scratch)
	}
	for i := range frames {
		dst[i] = appendDetections(probs.Item(i), probs.C, probs.H, probs.W,
			ic.d.classes, ic.d.CellThresh, dst[i][:0])
	}
	return dst, info
}

// FrameLabelsBatchSplit is DetectBatchSplit reduced to per-frame label
// sets: per frame the labels are identical to d.FrameLabels at every cut.
//
//sieve:noalloc wraps DetectBatchSplit on the shared-plane split path
func (ic *Inference) FrameLabelsBatchSplit(frames []*frame.YUV, dst []labels.Set, cut int, ship func([]byte) error) ([]labels.Set, SplitInfo) {
	var info SplitInfo
	ic.dets, info = ic.DetectBatchSplit(frames, ic.dets, cut, ship)
	for len(dst) < len(frames) {
		dst = append(dst, nil)
	}
	dst = dst[:len(frames)]
	for i := range frames {
		dst[i], ic.names = frameLabelSet(ic.dets[i], ic.count, ic.best, ic.names)
	}
	return dst, info
}

// FrameLabelsBatch is DetectBatch reduced to per-frame label sets, each
// identical to d.FrameLabels on that frame: FrameLabelsBatchSplit with the
// whole pass on the edge. The returned Sets are freshly built (they outlive
// the context's scratch); dst is the reused container.
//
//sieve:noalloc wraps DetectBatchSplit on the shared-plane path
func (ic *Inference) FrameLabelsBatch(frames []*frame.YUV, dst []labels.Set) []labels.Set {
	dst, _ = ic.FrameLabelsBatchSplit(frames, dst, len(ic.d.net.Layers), nil)
	return dst
}
