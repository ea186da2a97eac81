package nn

import (
	"fmt"
	"math"
)

// TrainConfig controls head training.
type TrainConfig struct {
	// Epochs over the collected cell dataset (default 40).
	Epochs int
	// Seed drives background subsampling and shuffling.
	Seed uint64
}

func (c *TrainConfig) fill() {
	if c.Epochs <= 0 {
		c.Epochs = 40
	}
}

const (
	// trainLR is the SGD learning rate of the first epoch.
	trainLR float32 = 0.02
	// trainBackgroundRatio caps the easy background cells at this multiple
	// of the positive cell count.
	trainBackgroundRatio = 3
)

// TrainReport summarises a training run.
type TrainReport struct {
	Cells        int
	Positives    int
	FinalLoss    float64
	CellAccuracy float64
}

// cellSample is one grid cell's receptive patch (the K×K neighbourhood of
// feature vectors the head convolution sees) and its class label. The patch
// is stored in the head conv's weight layout: feat[ic*K*K + k].
type cellSample struct {
	feat  []float32
	class int
	// hard marks background cells adjacent to an object cell: the decisive
	// negatives that teach the head "object nearby" is not "object here".
	hard bool
}

// hasPositiveNeighbour reports whether any cell within Chebyshev distance 1
// of (cx, cy) carries an object label.
func hasPositiveNeighbour(cells []int, grid, cx, cy int) bool {
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			x, y := cx+dx, cy+dy
			if x < 0 || x >= grid || y < 0 || y >= grid {
				continue
			}
			if cells[y*grid+x] != 0 {
				return true
			}
		}
	}
	return false
}

// Train fits the detector head by softmax regression on grid cells from the
// given labelled frames. Each cell is labelled with the class of the
// ground-truth box covering its centre (background otherwise); background
// cells are subsampled to keep the classes balanced. The backbone is fixed,
// so features are extracted once and the SGD epochs are cheap.
func (d *YOLite) Train(frames []LabeledFrame, cfg TrainConfig) (TrainReport, error) {
	cfg.fill()
	if len(frames) == 0 {
		return TrainReport{}, fmt.Errorf("nn: no training frames")
	}
	h1, _ := d.headConvs()
	var samples []cellSample
	positives := 0
	// The backbone features come out of the traversal inference runs, one
	// frame at a time through a one-item batch and one reused scratch.
	var (
		in      Batch
		scratch BatchScratch
	)
	for _, lf := range frames {
		in.Reshape(1, 3, d.InputSize, d.InputSize)
		fromYUVInto(in.Data, lf.Frame, d.InputSize)
		feats := d.net.ForwardBatchRange(&in, &scratch, 0, d.headIndex)
		grid := feats.H
		cells := d.labelCells(lf, grid)
		for cy := 0; cy < grid; cy++ {
			for cx := 0; cx < grid; cx++ {
				cls := cells[cy*grid+cx]
				samples = append(samples, cellSample{
					feat:  patchVector(feats, cx, cy, h1.K, h1.Pad),
					class: cls,
					hard:  cls == 0 && hasPositiveNeighbour(cells, grid, cx, cy),
				})
				if cls != 0 {
					positives++
				}
			}
		}
	}
	if positives == 0 {
		return TrainReport{}, fmt.Errorf("nn: training frames contain no object cells")
	}
	samples = subsampleBackground(samples, positives, cfg)

	// Standardise features for SGD (the backbone's colour and edge channels
	// differ in scale by an order of magnitude), then fold the affine
	// normalisation into the head conv so inference stays a plain conv.
	mean, std := featureStats(samples)
	for _, s := range samples {
		for dIdx := range s.feat {
			s.feat[dIdx] = (s.feat[dIdx] - mean[dIdx]) / std[dIdx]
		}
	}
	d.sgd(samples, cfg)
	foldNormalization(h1, mean, std)

	// Undo normalisation on the cached samples so the report reflects the
	// folded (inference-time) weights on raw features.
	for _, s := range samples {
		for dIdx := range s.feat {
			s.feat[dIdx] = float32(s.feat[dIdx]*std[dIdx]) + mean[dIdx]
		}
	}
	report := TrainReport{Cells: len(samples), Positives: positives}
	report.FinalLoss, report.CellAccuracy = d.evalCells(samples)
	return report, nil
}

// featureStats computes per-tap mean and standard deviation over samples.
func featureStats(samples []cellSample) (mean, std []float32) {
	dim := len(samples[0].feat)
	mean = make([]float32, dim)
	std = make([]float32, dim)
	n := float64(len(samples))
	sums := make([]float64, dim)
	for _, s := range samples {
		for dIdx, v := range s.feat {
			sums[dIdx] += float64(v)
		}
	}
	for dIdx := range sums {
		mean[dIdx] = float32(sums[dIdx] / n)
	}
	sq := make([]float64, dim)
	for _, s := range samples {
		for dIdx, v := range s.feat {
			dv := float64(v - mean[dIdx])
			sq[dIdx] += float64(dv * dv)
		}
	}
	for dIdx := range sq {
		sd := math.Sqrt(sq[dIdx] / n)
		if sd < 1e-4 {
			sd = 1
		}
		std[dIdx] = float32(sd)
	}
	return mean, std
}

// foldNormalization rewrites h1 so that conv(raw) == trained(normalised):
// w' = w/std, b' = b - Σ w·mean/std.
func foldNormalization(h1 *Conv2D, mean, std []float32) {
	kk := h1.K * h1.K
	for o := range h1.W {
		var shift float32
		for ic := 0; ic < h1.InC; ic++ {
			base := ic * kk
			wk := h1.W[o][ic]
			for k := 0; k < kk; k++ {
				wk[k] /= std[base+k]
				shift += float32(wk[k] * mean[base+k])
			}
		}
		h1.B[o] -= shift
	}
}

// patchVector extracts the K×K neighbourhood of features around cell
// (cx, cy) of the one-item batch feats in the head conv's weight layout
// (zero padding at grid edges).
func patchVector(feats *Batch, cx, cy, k, pad int) []float32 {
	out := make([]float32, feats.C*k*k)
	for ic := 0; ic < feats.C; ic++ {
		base := ic * k * k
		for ky := 0; ky < k; ky++ {
			y := cy + ky - pad
			if y < 0 || y >= feats.H {
				continue
			}
			for kx := 0; kx < k; kx++ {
				x := cx + kx - pad
				if x < 0 || x >= feats.W {
					continue
				}
				out[base+ky*k+kx] = feats.Data[(ic*feats.H+y)*feats.W+x]
			}
		}
	}
	return out
}

// labelCells maps grid cells to class indices using box coverage of the
// cell centre (in original-frame coordinates).
func (d *YOLite) labelCells(lf LabeledFrame, grid int) []int {
	out := make([]int, grid*grid)
	fw := float64(lf.Frame.W)
	fh := float64(lf.Frame.H)
	classIdx := make(map[string]int, len(d.classes))
	for i, c := range d.classes {
		classIdx[c] = i
	}
	for cy := 0; cy < grid; cy++ {
		for cx := 0; cx < grid; cx++ {
			// Cell centre in original-frame pixels.
			px := (float64(cx) + 0.5) / float64(grid) * fw
			py := (float64(cy) + 0.5) / float64(grid) * fh
			for _, b := range lf.Boxes {
				if px >= float64(b.X) && px < float64(b.X+b.W) &&
					py >= float64(b.Y) && py < float64(b.Y+b.H) {
					if idx, ok := classIdx[b.Class]; ok {
						out[cy*grid+cx] = idx
					}
					break
				}
			}
		}
	}
	return out
}

// subsampleBackground keeps every positive and every hard negative, and
// randomly thins the remaining (easy, far-from-object) background down to
// trainBackgroundRatio × positives.
func subsampleBackground(samples []cellSample, positives int, cfg TrainConfig) []cellSample {
	budget := int(trainBackgroundRatio * float64(positives))
	easy := 0
	for _, s := range samples {
		if s.class == 0 && !s.hard {
			easy++
		}
	}
	if easy <= budget {
		return samples
	}
	rng := trainRNG(cfg.Seed)
	keep := samples[:0]
	for _, s := range samples {
		if s.class != 0 || s.hard {
			keep = append(keep, s)
			continue
		}
		if rng.next()%uint64(easy) < uint64(budget) {
			keep = append(keep, s)
		}
	}
	return keep
}

// sgd trains the two-layer head by backpropagation: hidden = relu(W1·patch
// + b1), logits = W2·hidden + b2, softmax cross-entropy loss.
func (d *YOLite) sgd(samples []cellSample, cfg TrainConfig) {
	h1, h2 := d.headConvs()
	nc := h2.OutC
	nh := h1.OutC
	kk := h1.K * h1.K
	rng := trainRNG(cfg.Seed ^ 0xABCD)
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	probs := make([]float64, nc)
	hidden := make([]float32, nh)
	dHidden := make([]float32, nh)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Fisher-Yates shuffle.
		for i := len(order) - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		lr := trainLR / (1 + float32(0.05*float32(epoch)))
		for _, idx := range order {
			s := samples[idx]
			headForward(h1, h2, s.feat, hidden, probs)
			// Output layer gradient: dz = p - onehot.
			for i := range dHidden {
				dHidden[i] = 0
			}
			for c := 0; c < nc; c++ {
				dz := float32(probs[c])
				if c == s.class {
					dz--
				}
				g := float32(dz * lr)
				w := h2.W[c]
				for hIdx := 0; hIdx < nh; hIdx++ {
					dHidden[hIdx] += float32(dz * w[hIdx][0])
					w[hIdx][0] -= float32(g * hidden[hIdx])
				}
				h2.B[c] -= g
			}
			// Hidden layer gradient through ReLU.
			for hIdx := 0; hIdx < nh; hIdx++ {
				if hidden[hIdx] <= 0 {
					continue
				}
				g := float32(dHidden[hIdx] * lr)
				if g == 0 {
					continue
				}
				w := h1.W[hIdx]
				for ic := 0; ic < h1.InC; ic++ {
					base := ic * kk
					wk := w[ic]
					for k := 0; k < kk; k++ {
						wk[k] -= float32(g * s.feat[base+k])
					}
				}
				h1.B[hIdx] -= g
			}
		}
	}
}

// headForward runs the two-layer head on one patch vector, filling hidden
// (post-ReLU) and probs (softmax).
func headForward(h1, h2 *Conv2D, feat []float32, hidden []float32, probs []float64) {
	kk := h1.K * h1.K
	for hIdx := 0; hIdx < h1.OutC; hIdx++ {
		acc := h1.B[hIdx]
		w := h1.W[hIdx]
		for ic := 0; ic < h1.InC; ic++ {
			base := ic * kk
			wk := w[ic]
			for k := 0; k < kk; k++ {
				acc += float32(wk[k] * feat[base+k])
			}
		}
		if acc < 0 {
			acc = 0
		}
		hidden[hIdx] = acc
	}
	maxL := math.Inf(-1)
	for c := 0; c < h2.OutC; c++ {
		l := float64(h2.B[c])
		w := h2.W[c]
		for hIdx := 0; hIdx < h2.InC; hIdx++ {
			l += float64(float64(w[hIdx][0]) * float64(hidden[hIdx]))
		}
		probs[c] = l
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	for c := range probs {
		probs[c] = math.Exp(probs[c] - maxL)
		sum += probs[c]
	}
	for c := range probs {
		probs[c] /= sum
	}
}

func (d *YOLite) evalCells(samples []cellSample) (loss, acc float64) {
	h1, h2 := d.headConvs()
	probs := make([]float64, h2.OutC)
	hidden := make([]float32, h1.OutC)
	correct := 0
	for _, s := range samples {
		headForward(h1, h2, s.feat, hidden, probs)
		p := probs[s.class]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		best := 0
		for c := 1; c < len(probs); c++ {
			if probs[c] > probs[best] {
				best = c
			}
		}
		if best == s.class {
			correct++
		}
	}
	n := float64(len(samples))
	return loss / n, float64(correct) / n
}

// trainRNG is the same SplitMix64 generator the synth package uses.
type trainRNGState uint64

func trainRNG(seed uint64) *trainRNGState {
	s := trainRNGState(seed | 1)
	return &s
}

func (s *trainRNGState) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
