package nn

import (
	"fmt"
	"slices"

	"sieve/internal/frame"
	"sieve/internal/labels"
)

// YOLite is the repo's reference object detector, standing in for the
// paper's YOLOv3. It is a grid detector: a fixed, hand-designed
// convolutional backbone (multi-scale colour averages and signed edge
// responses) feeds a trainable 1×1 convolution head that classifies every
// grid cell into background or one of the object classes, followed by a
// per-cell softmax. Only the head is trained (pure-Go SGD, see Train),
// which keeps the model deterministic and the repo self-contained while
// preserving what the evaluation needs from the NN: real per-layer compute,
// real intermediate tensor sizes, and near-oracle labels on the synthetic
// feeds.
type YOLite struct {
	net     *Network
	classes []string // classes[0] is implicit background
	// InputSize is the square input resolution (default 300, the paper's
	// YOLO input).
	InputSize int
	// CellThresh is the per-cell probability needed to count a detection.
	CellThresh float32
	headIndex  int // index of the trainable 1×1 conv in net.Layers
}

// Detection is one grid cell whose class probability cleared the threshold.
type Detection struct {
	Class string
	Prob  float32
	// CellX, CellY are grid coordinates.
	CellX, CellY int
}

// ObjectBox is a ground-truth box in original-frame pixel coordinates,
// used to label grid cells during training.
type ObjectBox struct {
	Class      string
	X, Y, W, H int
}

// LabeledFrame pairs a frame with its ground-truth boxes.
type LabeledFrame struct {
	Frame *frame.YUV
	Boxes []ObjectBox
}

// NewYOLite builds the detector for the given object classes (background is
// added internally as class 0). The head starts untrained; call Train.
func NewYOLite(classes []string, inputSize int) *YOLite {
	if inputSize <= 0 {
		inputSize = 300
	}
	d := &YOLite{
		classes:    append([]string{"background"}, classes...),
		InputSize:  inputSize,
		CellThresh: 0.65,
	}
	d.net, d.headIndex = buildYOLiteNet(inputSize, len(d.classes))
	return d
}

// Classes returns the object classes (without background).
func (d *YOLite) Classes() []string { return d.classes[1:] }

// Network exposes the underlying network (for partitioning and summaries).
func (d *YOLite) Network() *Network { return d.net }

// Detect runs the network on one frame and returns all cells above
// threshold. It is a batch of one through a throwaway Inference context;
// hot paths (the inference plane) hold a persistent Inference so repeated
// batches are allocation-free.
func (d *YOLite) Detect(f *frame.YUV) []Detection {
	return NewInference(d).DetectBatch([]*frame.YUV{f}, nil)[0]
}

// appendDetections scans one frame's class-probability grid (CHW data,
// channel 0 = background) and appends every above-threshold cell to dst.
// The strict > comparison keeps the first maximum, so ties between equally
// probable classes deterministically pick the lowest class index (pinned
// by TestDetectTieBreak).
func appendDetections(probs []float32, c, h, w int, classes []string, thresh float32, dst []Detection) []Detection {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			bestC, bestP := 0, probs[y*w+x]
			for ch := 1; ch < c; ch++ {
				if p := probs[(ch*h+y)*w+x]; p > bestP {
					bestC, bestP = ch, p
				}
			}
			if bestC != 0 && bestP >= thresh {
				dst = append(dst, Detection{
					Class: classes[bestC], Prob: bestP, CellX: x, CellY: y,
				})
			}
		}
	}
	return dst
}

// FrameLabels reduces detections to the frame's label set — the output the
// SiEVE pipeline stores per I-frame and propagates to P-frames. A class is
// reported when it has at least two supporting cells, or a single cell of
// very high confidence (suppressing lone misfires without losing genuinely
// one-cell-sized objects).
func (d *YOLite) FrameLabels(f *frame.YUV) labels.Set {
	set, _ := frameLabelSet(d.Detect(f), make(map[string]int), make(map[string]float32), nil)
	return set
}

// frameLabelSet applies the ≥2-cells-or-one-very-confident-cell rule to one
// frame's detections. count, best and names are caller-owned scratch
// (cleared here); the grown names slice is returned alongside the Set so
// batch paths can keep its capacity. The returned Set itself is always
// freshly built (it escapes into events and result databases).
func frameLabelSet(dets []Detection, count map[string]int, best map[string]float32, names []string) (labels.Set, []string) {
	clear(count)
	clear(best)
	for _, det := range dets {
		count[det.Class]++
		if det.Prob > best[det.Class] {
			best[det.Class] = det.Prob
		}
	}
	names = names[:0]
	for class, n := range count {
		if n >= 2 || best[class] >= 0.9 {
			names = append(names, class)
		}
	}
	slices.Sort(names) // canonical order: count is a map, iteration order is random
	return labels.NewSet(names...), names
}

// buildYOLiteNet constructs backbone + head + softmax. Returns the network
// and the head layer's index.
func buildYOLiteNet(inputSize, numClasses int) (*Network, int) {
	conv1 := NewConv2D("conv1", 3, 8, 3, 2, 1)
	fillBackboneFilters(conv1)
	conv2 := NewConv2D("conv2", 8, 16, 3, 2, 1)
	fillBackboneFilters(conv2)
	conv3 := NewConv2D("conv3", 16, 32, 3, 2, 1)
	fillBackboneFilters(conv3)
	conv4 := NewConv2D("conv4", 32, 64, 3, 2, 1)
	fillBackboneFilters(conv4)
	// The head is a two-layer MLP over the feature grid: a 3×3 convolution
	// (so each cell's classification sees its neighbourhood — spatial
	// extent separates a one-cell person from a many-cell car) into a
	// hidden ReLU layer (so non-linear colour rules like "chroma far from
	// neutral in either direction" are representable), then a 1×1
	// classifier. Both head layers are trained; the backbone is fixed.
	head1 := NewConv2D("head1", 64, headHidden, 3, 1, 1)
	initHeadWeights(head1, 0xFEED)
	head2 := NewConv2D("head2", headHidden, numClasses, 1, 1, 0)

	net := &Network{
		Input: Shape{C: 3, H: inputSize, W: inputSize},
		Layers: []Layer{
			conv1, &ReLU{Tag: "relu1"},
			conv2, &ReLU{Tag: "relu2"},
			conv3, &ReLU{Tag: "relu3"},
			conv4, &ReLU{Tag: "relu4"},
			head1, &ReLU{Tag: "relu5"},
			head2,
			&Softmax{Tag: "softmax"},
		},
	}
	return net, 8 // index of head1: backbone is layers [0,8)
}

// headHidden is the hidden width of the trainable detection head.
const headHidden = 32

// initHeadWeights gives a trainable conv small deterministic pseudo-random
// weights (zero init would collapse the hidden layer's gradients).
func initHeadWeights(c *Conv2D, seed uint64) {
	rng := trainRNG(seed)
	scale := float32(1.0 / float32(c.InC*c.K*c.K))
	for o := range c.W {
		for i := range c.W[o] {
			for k := range c.W[o][i] {
				// Uniform in [-8, +8] scaled.
				u := float32(int64(rng.next()%17) - 8)
				c.W[o][i][k] = u * scale
			}
		}
	}
}

// fillBackboneFilters writes the fixed feature filters: the first half of
// the output channels box-average the corresponding input channel
// (multi-scale colour/brightness), the second half are signed Sobel edge
// responses cycling over input channels (+X, +Y alternating). Signed pairs
// aren't needed because ReLU follows each conv and the head can weight any
// channel negatively at its own layer; what matters is that colour means
// and edge energy both survive to the grid cells.
func fillBackboneFilters(c *Conv2D) {
	half := c.OutC / 2
	for o := 0; o < c.OutC; o++ {
		if o < half {
			in := o % c.InC
			for i := range c.W[o][in] {
				c.W[o][in][i] = 1.0 / 9.0
			}
			continue
		}
		e := o - half
		in := e % c.InC
		if (e/c.InC)%2 == 0 {
			copy(c.W[o][in], sobelX[:])
		} else {
			copy(c.W[o][in], sobelY[:])
		}
		// Bias keeps some negative edge response visible through ReLU.
		c.B[o] = 0.5
	}
}

var (
	sobelX = [9]float32{-1, 0, 1, -2, 0, 2, -1, 0, 1}
	sobelY = [9]float32{-1, -2, -1, 0, 0, 0, 1, 2, 1}
)

// headConvs returns the two trainable head layers.
func (d *YOLite) headConvs() (h1, h2 *Conv2D) {
	h1, ok1 := d.net.Layers[d.headIndex].(*Conv2D)
	h2, ok2 := d.net.Layers[d.headIndex+2].(*Conv2D)
	if !ok1 || !ok2 {
		panic(fmt.Sprintf("nn: layers %d/%d are not the head convs", d.headIndex, d.headIndex+2))
	}
	return h1, h2
}
