// Package pipeline assembles the end-to-end SiEVE system and the five
// deployment baselines of Section V-B, and evaluates their throughput
// (Figure 4) and data movement (Figure 5).
//
// A VideoAsset bundles everything the evaluation needs for one camera feed:
// the semantically encoded stream (tuned parameters), the default-encoded
// stream (scenecut 40 / GOP 250), the baselines' sampling decisions, and
// the exact byte sizes each method ships over each hop. Evaluate then runs
// a discrete-event pipeline model whose per-item service times come from
// micro-costs measured on this repository's own codec, seeker, similarity
// detectors and NN — so relative throughputs reflect real work, while the
// WAN is modelled at the paper's 30 Mbps.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"sieve/internal/clock"
	"sieve/internal/codec"
	"sieve/internal/container"
	"sieve/internal/des"
	"sieve/internal/frame"
	"sieve/internal/nn"
	"sieve/internal/runner"
	"sieve/internal/simnet"
	"sieve/internal/synth"
	"sieve/internal/tuner"
	"sieve/internal/vision"
)

// Method identifies one of the five evaluated deployments.
type Method string

// The five baselines of Section V-B.
const (
	IFrameEdgeCloudNN  Method = "iframe-edge+cloud-nn"
	IFrameCloudCloudNN Method = "iframe-cloud+cloud-nn"
	IFrameEdgeEdgeNN   Method = "iframe-edge+edge-nn"
	UniformEdgeCloudNN Method = "uniform-edge+cloud-nn"
	MSEEdgeCloudNN     Method = "mse-edge+cloud-nn"
)

// AllMethods lists the baselines in the paper's presentation order.
func AllMethods() []Method {
	return []Method{
		IFrameEdgeCloudNN, IFrameCloudCloudNN, IFrameEdgeEdgeNN,
		UniformEdgeCloudNN, MSEEdgeCloudNN,
	}
}

// NNInputSize is the reference detector's input edge (the paper resizes
// frames to the 300×300 YOLO input before shipping them to the cloud).
const NNInputSize = 300

// AssetOpts configures dataset preparation.
type AssetOpts struct {
	// Seconds and FPS scale the rendered feed (defaults 30 s at 10 fps;
	// the paper uses 4 h at 30 fps — results are throughput ratios and
	// byte ratios, which are duration-invariant).
	Seconds, FPS int
	// TrainSeconds scales the tuning split (default = Seconds).
	TrainSeconds int
	// Quality is the encoder quality in [1,100]; 0 selects the default 85.
	// The lowest expressible quality is therefore 1 (the codec's floor);
	// anything else out of range is rejected by PrepareAsset rather than
	// silently rewritten.
	Quality int
}

func (o *AssetOpts) fill() error {
	if o.Seconds <= 0 {
		o.Seconds = 30
	}
	if o.FPS <= 0 {
		o.FPS = 10
	}
	if o.TrainSeconds <= 0 {
		o.TrainSeconds = o.Seconds
	}
	if o.Quality == 0 {
		o.Quality = 85
	}
	if o.Quality < 1 || o.Quality > 100 {
		return fmt.Errorf("pipeline: quality %d out of [1,100] (0 selects the default 85)", o.Quality)
	}
	return nil
}

// VideoAsset is one prepared camera feed.
type VideoAsset struct {
	Name      string
	NumFrames int
	Width     int
	Height    int

	// SemanticCfg is the tuned (or fixed-rate for unlabelled feeds)
	// configuration; DefaultCfg the paper's untuned one.
	SemanticCfg, DefaultCfg tuner.Config

	// Semantic and Default are the two encoded streams.
	Semantic, Default *container.Reader

	// IFrames are the semantic stream's I-frame indices.
	IFrames []int
	// ResizedIBytes maps I-frame index → bytes after decode+resize+
	// re-encode at the NN input size (what IFrameEdgeCloudNN ships).
	ResizedIBytes map[int]int

	// UniformSamples / MSESamples are the baselines' selected frames on the
	// default stream, with their shipped (resized) byte sizes.
	UniformSamples map[int]int
	MSESamples     map[int]int
}

// PrepareAsset renders a preset, tunes the encoder on an independent
// training split (labelled feeds) or fixes one I-frame per 5 s (unlabelled
// feeds, as in the paper), encodes the evaluation split with both semantic
// and default parameters, and precomputes every baseline's sampling and
// byte accounting. The context cancels the render/encode loops between
// frames; pass context.Background() when cancellation is not needed.
func PrepareAsset(ctx context.Context, name synth.PresetName, opts AssetOpts) (*VideoAsset, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.fill(); err != nil {
		return nil, err
	}
	test, err := synth.Preset(name, synth.PresetOpts{Seconds: opts.Seconds, FPS: opts.FPS})
	if err != nil {
		return nil, err
	}
	spec := test.Spec()
	asset := &VideoAsset{
		Name:       string(name),
		NumFrames:  test.NumFrames(),
		Width:      spec.Width,
		Height:     spec.Height,
		DefaultCfg: tuner.DefaultConfig(),
	}

	labelled := false
	for _, p := range synth.LabelledPresets() {
		if p == name {
			labelled = true
			break
		}
	}
	var mseThreshold float64
	if labelled {
		train, err := synth.Preset(name, synth.PresetOpts{
			Seconds: opts.TrainSeconds, FPS: opts.FPS, Seed: 1,
		})
		if err != nil {
			return nil, err
		}
		best, err := tuner.Tune(ctx, train, train.Track(), tuner.DefaultSweep())
		if err != nil {
			return nil, fmt.Errorf("pipeline: tuning %s: %w", name, err)
		}
		asset.SemanticCfg = best.Config
		// Tune the MSE threshold on the same training split to match the
		// semantic sampling rate (the paper's fair-comparison rule).
		mse := vision.NewMSE()
		scores := make([]float64, train.NumFrames())
		for i := range scores {
			scores[i] = mse.Score(train.Frame(i))
		}
		mseThreshold = vision.ThresholdForShare(scores, best.SS)
	} else {
		// Unlabelled feeds: one I-frame per 5 seconds for both approaches.
		asset.SemanticCfg = tuner.Config{GOP: 5 * opts.FPS, Scenecut: 0}
	}

	if err := asset.encodeStreams(ctx, test, opts); err != nil {
		return nil, err
	}
	if err := asset.analyzeBaselines(ctx, test, opts, mseThreshold, labelled); err != nil {
		return nil, err
	}
	return asset, nil
}

func (a *VideoAsset) encodeStreams(ctx context.Context, v *synth.Video, opts AssetOpts) error {
	spec := v.Spec()
	encodeOne := func(cfg tuner.Config, minGOP int) (*container.Reader, error) {
		enc, err := codec.NewEncoder(codec.Params{
			Width: spec.Width, Height: spec.Height, Quality: opts.Quality,
			GOPSize: cfg.GOP, Scenecut: cfg.Scenecut, MinGOP: minGOP,
		})
		if err != nil {
			return nil, err
		}
		buf := &container.Buffer{}
		w, err := container.NewWriter(buf, container.StreamInfo{
			Width: spec.Width, Height: spec.Height, FPS: spec.FPS,
			Quality: opts.Quality, GOPSize: cfg.GOP, Scenecut: cfg.Scenecut,
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < v.NumFrames(); i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			ef, err := enc.Encode(v.Frame(i))
			if err != nil {
				return nil, fmt.Errorf("pipeline: encoding %s frame %d: %w", a.Name, i, err)
			}
			if err := w.WriteEncoded(ef); err != nil {
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		return container.NewReader(buf, buf.Size())
	}
	var err error
	a.Semantic, err = encodeOne(a.SemanticCfg, tuner.DefaultMinGOP)
	if err != nil {
		return err
	}
	a.Default, err = encodeOne(a.DefaultCfg, 1)
	return err
}

// analyzeBaselines decodes the streams once to precompute I-frame resized
// sizes (semantic) and the uniform/MSE selections with their shipped bytes
// (default stream).
func (a *VideoAsset) analyzeBaselines(ctx context.Context, v *synth.Video, opts AssetOpts, mseThreshold float64, labelled bool) error {
	// Semantic stream: decode each I-frame, resize to the NN input,
	// re-encode intra to get shipped bytes.
	a.ResizedIBytes = make(map[int]int)
	params := a.Semantic.Info().CodecParams()
	for _, m := range a.Semantic.IFrames() {
		a.IFrames = append(a.IFrames, m.Index)
		payload, err := a.Semantic.Payload(m.Index)
		if err != nil {
			return err
		}
		img, err := codec.DecodeIFrame(params, payload)
		if err != nil {
			return fmt.Errorf("pipeline: %s I-frame %d: %w", a.Name, m.Index, err)
		}
		n, err := resizedIntraBytes(img, opts.Quality)
		if err != nil {
			return err
		}
		a.ResizedIBytes[m.Index] = n
	}

	// Default stream: sequential decode; score MSE; select uniform frames.
	dec, err := codec.NewDecoder(a.Default.Info().CodecParams())
	if err != nil {
		return err
	}
	mse := vision.NewMSE()
	scores := make([]float64, a.NumFrames)
	uniformSet := make(map[int]bool, len(a.IFrames))
	for _, idx := range vision.UniformIndices(a.NumFrames, sampleShare(len(a.IFrames), a.NumFrames)) {
		uniformSet[idx] = true
	}
	a.UniformSamples = make(map[int]int)
	a.MSESamples = make(map[int]int)
	type pending struct {
		idx int
		img *frame.YUV
	}
	var msePending []pending
	img := frame.NewYUV(a.Default.Info().Width, a.Default.Info().Height)
	for i := 0; i < a.NumFrames; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		payload, err := a.Default.Payload(i)
		if err != nil {
			return err
		}
		if err := dec.DecodeInto(payload, img); err != nil {
			return fmt.Errorf("pipeline: %s default frame %d: %w", a.Name, i, err)
		}
		scores[i] = mse.Score(img)
		if uniformSet[i] {
			n, err := resizedIntraBytes(img, opts.Quality)
			if err != nil {
				return err
			}
			a.UniformSamples[i] = n
		}
		if labelled {
			if scores[i] >= mseThreshold {
				n, err := resizedIntraBytes(img, opts.Quality)
				if err != nil {
					return err
				}
				a.MSESamples[i] = n
			}
		} else {
			msePending = append(msePending, pending{idx: i, img: img.Clone()})
		}
	}
	if !labelled {
		// Pick the threshold that matches the I-frame rate, then price the
		// selected frames.
		th := vision.ThresholdForShare(scores, sampleShare(len(a.IFrames), a.NumFrames))
		for _, p := range msePending {
			if scores[p.idx] >= th {
				n, err := resizedIntraBytes(p.img, opts.Quality)
				if err != nil {
					return err
				}
				a.MSESamples[p.idx] = n
			}
		}
	}
	return nil
}

func sampleShare(k, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) / float64(n)
}

// resizedIntraBytes prices one frame's trip to the cloud: resize to the NN
// input and intra-encode (like a still JPEG).
func resizedIntraBytes(img *frame.YUV, quality int) (int, error) {
	small := frame.ResizeYUV(img, NNInputSize, NNInputSize)
	enc, err := codec.NewEncoder(codec.Params{
		Width: small.W, Height: small.H, Quality: quality, GOPSize: 1,
	})
	if err != nil {
		return 0, err
	}
	ef, err := enc.EncodeForced(small, codec.FrameI)
	if err != nil {
		return 0, err
	}
	return len(ef.Data), nil
}

// MicroCosts are measured per-operation times on this host, the service
// times of the DES stages.
type MicroCosts struct {
	// Seek is the per-frame metadata scan cost of the I-frame seeker.
	Seek time.Duration
	// DecodeI / DecodeP are per-frame decode costs at the asset resolution.
	DecodeI, DecodeP time.Duration
	// MSE is the per-frame similarity cost (excluding decode).
	MSE time.Duration
	// ResizeEncode is the cost of shrinking a frame to the NN input and
	// re-encoding it.
	ResizeEncode time.Duration
	// NN is the reference-detector forward cost at the NN input size.
	NN time.Duration
}

// Cluster models the two compute tiers: service times are divided by the
// tier speed (edge 1.0 = this host; the paper's cloud Xeon runs the NN
// faster than the edge desktop).
type Cluster struct {
	EdgeSpeed  float64
	CloudSpeed float64
	Net        *simnet.Topology
}

// DefaultCluster mirrors the paper's setup: the edge at host speed, the
// cloud 3× faster for NN work, and the 30 Mbps WAN.
func DefaultCluster() Cluster {
	return Cluster{EdgeSpeed: 1, CloudSpeed: 3, Net: simnet.NewPaperTopology()}
}

// MeasureCosts times each micro-operation on the asset's own streams and
// the given detector (nil detector uses a fresh YOLite over the five paper
// classes) against clk. Production measurement passes clock.Wall() — the
// timings are the signal — while tests inject a fixed-step clock, making
// the measurement machinery itself deterministic and instant.
func MeasureCosts(a *VideoAsset, det *nn.YOLite, clk clock.Clock) (MicroCosts, error) {
	var mc MicroCosts
	// Seek: scan the full semantic index, amortised per frame.
	start := clk.Now()
	rounds := 0
	for clk.Now().Sub(start) < 2*time.Millisecond {
		n := 0
		a.Semantic.ScanMeta(func(container.FrameMeta) bool { n++; return true })
		rounds++
	}
	mc.Seek = clk.Now().Sub(start) / time.Duration(rounds*a.NumFrames)
	if mc.Seek <= 0 {
		// The metadata scan can be under a nanosecond per frame; keep the
		// cost strictly positive so throughput stays finite.
		mc.Seek = time.Nanosecond
	}

	params := a.Semantic.Info().CodecParams()
	// DecodeI on the first I-frame.
	if len(a.IFrames) == 0 {
		return mc, fmt.Errorf("pipeline: %s has no I-frames", a.Name)
	}
	payload, err := a.Semantic.Payload(a.IFrames[0])
	if err != nil {
		return mc, err
	}
	start = clk.Now()
	img, err := codec.DecodeIFrame(params, payload)
	if err != nil {
		return mc, err
	}
	mc.DecodeI = clk.Now().Sub(start)

	// DecodeP: sequential decode of the first few default frames, with the
	// steady-state decode-into path (what the baselines actually pay).
	dec, err := codec.NewDecoder(a.Default.Info().CodecParams())
	if err != nil {
		return mc, err
	}
	n := a.NumFrames
	if n > 20 {
		n = 20
	}
	last := frame.NewYUV(a.Default.Info().Width, a.Default.Info().Height)
	start = clk.Now()
	for i := 0; i < n; i++ {
		p, err := a.Default.Payload(i)
		if err != nil {
			return mc, err
		}
		if err := dec.DecodeInto(p, last); err != nil {
			return mc, err
		}
	}
	mc.DecodeP = clk.Now().Sub(start) / time.Duration(n)

	// MSE between two decoded frames.
	m := vision.NewMSE()
	m.Score(img)
	start = clk.Now()
	m.Score(last)
	mc.MSE = clk.Now().Sub(start)

	// Resize + intra encode.
	start = clk.Now()
	if _, err := resizedIntraBytes(img, params.Quality); err != nil {
		return mc, err
	}
	mc.ResizeEncode = clk.Now().Sub(start)

	// NN forward.
	if det == nil {
		det = nn.NewYOLite([]string{"car", "bus", "truck", "person", "boat"}, NNInputSize)
	}
	start = clk.Now()
	det.FrameLabels(img)
	mc.NN = clk.Now().Sub(start)
	return mc, nil
}

// Report is one method's end-to-end result over a set of assets.
type Report struct {
	Method Method
	// Frames is the total frame count across all videos (I + P).
	Frames int
	// Analysed is how many frames reached the NN.
	Analysed int
	// Throughput is frames per second of wall processing (Figure 4's axis).
	Throughput float64
	// Makespan is the modelled total processing time.
	Makespan time.Duration
	// CameraEdgeBytes / EdgeCloudBytes are the hop totals (Figure 5).
	CameraEdgeBytes int64
	EdgeCloudBytes  int64
	// Bottleneck names the busiest stage.
	Bottleneck string
}

// item is one frame's service descriptor in the DES model.
type item struct {
	edge, cloud time.Duration
	wanBytes    int64
}

// assetItems is one asset's contribution to an evaluation: its per-frame
// service descriptors plus the asset-level accounting.
type assetItems struct {
	items           []item
	cameraEdgeBytes int64
	analysed        int
}

// methodItems builds one asset's per-frame service descriptors for a
// method. It only reads the asset and the measured costs, so different
// assets can be processed concurrently.
func methodItems(method Method, a *VideoAsset, mc MicroCosts, cluster Cluster) (assetItems, error) {
	var out assetItems
	out.items = make([]item, 0, a.NumFrames)
	iSet := make(map[int]int, len(a.ResizedIBytes))
	for k, v := range a.ResizedIBytes {
		iSet[k] = v
	}
	switch method {
	case IFrameEdgeCloudNN:
		out.cameraEdgeBytes = a.Semantic.PayloadBytes(nil)
		for i := 0; i < a.NumFrames; i++ {
			it := item{edge: scale(mc.Seek, cluster.EdgeSpeed)}
			if n, isI := iSet[i]; isI {
				it.edge += scale(mc.DecodeI+mc.ResizeEncode, cluster.EdgeSpeed)
				it.wanBytes = int64(n)
				it.cloud = scale(mc.NN, cluster.CloudSpeed)
				out.analysed++
			}
			out.items = append(out.items, it)
		}
	case IFrameCloudCloudNN:
		// Full semantic stream crosses both hops; seek and NN in cloud.
		out.cameraEdgeBytes = a.Semantic.PayloadBytes(nil)
		for i := 0; i < a.NumFrames; i++ {
			m := a.Semantic.Meta(i)
			it := item{
				wanBytes: int64(m.Size),
				cloud:    scale(mc.Seek, cluster.CloudSpeed),
			}
			if _, isI := iSet[i]; isI {
				it.cloud += scale(mc.DecodeI+mc.NN, cluster.CloudSpeed)
				out.analysed++
			}
			out.items = append(out.items, it)
		}
	case IFrameEdgeEdgeNN:
		out.cameraEdgeBytes = a.Semantic.PayloadBytes(nil)
		for i := 0; i < a.NumFrames; i++ {
			it := item{edge: scale(mc.Seek, cluster.EdgeSpeed)}
			if _, isI := iSet[i]; isI {
				it.edge += scale(mc.DecodeI+mc.NN, cluster.EdgeSpeed)
				it.wanBytes = labelTupleBytes
				out.analysed++
			}
			out.items = append(out.items, it)
		}
	case UniformEdgeCloudNN:
		out.cameraEdgeBytes = a.Default.PayloadBytes(nil)
		for i := 0; i < a.NumFrames; i++ {
			it := item{edge: scale(decodeCost(a, mc, i), cluster.EdgeSpeed)}
			if n, ok := a.UniformSamples[i]; ok {
				it.edge += scale(mc.ResizeEncode, cluster.EdgeSpeed)
				it.wanBytes = int64(n)
				it.cloud = scale(mc.NN, cluster.CloudSpeed)
				out.analysed++
			}
			out.items = append(out.items, it)
		}
	case MSEEdgeCloudNN:
		out.cameraEdgeBytes = a.Default.PayloadBytes(nil)
		for i := 0; i < a.NumFrames; i++ {
			it := item{edge: scale(decodeCost(a, mc, i)+mc.MSE, cluster.EdgeSpeed)}
			if n, ok := a.MSESamples[i]; ok {
				it.edge += scale(mc.ResizeEncode, cluster.EdgeSpeed)
				it.wanBytes = int64(n)
				it.cloud = scale(mc.NN, cluster.CloudSpeed)
				out.analysed++
			}
			out.items = append(out.items, it)
		}
	default:
		return out, fmt.Errorf("pipeline: unknown method %q", method)
	}
	return out, nil
}

// Evaluate runs one method over the assets (processed back to back, as in
// the paper's post-event scenario where recorded videos are analysed from
// edge storage). The per-asset service descriptors are built concurrently
// on pool (nil uses a GOMAXPROCS-wide default) and concatenated in asset
// order, so the result is identical to a sequential evaluation; the
// discrete-event simulation itself is inherently ordered and stays serial.
func Evaluate(ctx context.Context, method Method, assets []*VideoAsset, costs map[string]MicroCosts, cluster Cluster, pool *runner.Pool) (Report, error) {
	if cluster.Net == nil {
		cluster.Net = simnet.NewPaperTopology()
	}
	if cluster.EdgeSpeed <= 0 {
		cluster.EdgeSpeed = 1
	}
	if cluster.CloudSpeed <= 0 {
		cluster.CloudSpeed = 1
	}
	rep := Report{Method: method}

	// Build per-frame service descriptors for every asset in parallel.
	parts, err := runner.MapSlice(ctx, pool, assets, func(_ context.Context, a *VideoAsset) (assetItems, error) {
		mc, ok := costs[a.Name]
		if !ok {
			return assetItems{}, fmt.Errorf("pipeline: no measured costs for asset %q", a.Name)
		}
		return methodItems(method, a, mc, cluster)
	})
	if err != nil {
		return rep, err
	}
	// Concatenate in asset order — byte-identical to the sequential run.
	total := 0
	for _, p := range parts {
		total += len(p.items)
	}
	items := make([]item, 0, total)
	for _, p := range parts {
		items = append(items, p.items...)
		rep.CameraEdgeBytes += p.cameraEdgeBytes
		rep.Analysed += p.analysed
	}

	wan := cluster.Net.EdgeToCloud
	stages := []des.Stage{
		{Name: "edge", Service: func(i int) time.Duration { return items[i].edge }},
		{Name: "wan", Service: func(i int) time.Duration {
			if items[i].wanBytes == 0 {
				return 0
			}
			return wan.TransferTime(items[i].wanBytes)
		}},
		{Name: "cloud", Service: func(i int) time.Duration { return items[i].cloud }},
	}
	result, err := des.Simulate(len(items), stages)
	if err != nil {
		return rep, err
	}
	rep.Frames = len(items)
	rep.Makespan = result.Makespan
	rep.Throughput = result.Throughput()
	b, _ := result.Bottleneck()
	rep.Bottleneck = result.StageNames[b]
	for i := range items {
		rep.EdgeCloudBytes += items[i].wanBytes
	}
	return rep, nil
}

// labelTupleBytes prices one (frameID, labels) result tuple shipped to the
// cloud database by the edge-NN deployment.
const labelTupleBytes = 32

func decodeCost(a *VideoAsset, mc MicroCosts, i int) time.Duration {
	if a.Default.Meta(i).Type == codec.FrameI {
		return mc.DecodeI
	}
	return mc.DecodeP
}

func scale(d time.Duration, speed float64) time.Duration {
	if speed == 1 {
		return d
	}
	return time.Duration(float64(d) / speed)
}
