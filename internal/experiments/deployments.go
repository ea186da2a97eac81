package experiments

import (
	"context"
	"fmt"
	"time"

	"sieve"
	"sieve/internal/clock"
	"sieve/internal/cluster"
	"sieve/internal/codec"
	"sieve/internal/container"
	"sieve/internal/frame"
	"sieve/internal/nn"
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

// nnInputSize is the reference detector's input edge (the paper resizes
// frames to the 300×300 YOLO input before shipping them to the cloud).
const nnInputSize = 300

// quality is the encoder quality of every frame the harness prices for the
// cloud: the codec default, which every encoded stream uses too.
const quality = 85

// cloudSpeed divides the cloud's service times: the paper's cloud Xeon runs
// the NN 3× faster than the edge desktop, which runs at this host's speed.
const cloudSpeed = nn.CloudTierFLOPS / nn.EdgeTierFLOPS

// labelTupleBytes prices one (frameID, labels) result tuple shipped to the
// cloud database by the edge-NN deployment.
const labelTupleBytes = 32

// VideoAsset is one prepared camera feed.
type VideoAsset struct {
	Name      string
	NumFrames int

	// Semantic and Default are the feed encoded with the tuned (or, for
	// unlabelled feeds, fixed-rate) parameters and with the paper's untuned
	// ones (scenecut 40 / GOP 250).
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
// and default parameters through sieve.EncodeStream, and precomputes every
// baseline's sampling and byte accounting. The context cancels the
// render/encode loops between frames.
func PrepareAsset(ctx context.Context, name synth.PresetName, opts Opts) (*VideoAsset, error) {
	opts.fill()
	test, err := synth.Preset(name, synth.PresetOpts{Seconds: opts.Seconds, FPS: opts.FPS})
	if err != nil {
		return nil, err
	}
	asset := &VideoAsset{Name: string(name), NumFrames: test.NumFrames()}

	// Unlabelled feeds: one I-frame per 5 seconds for both approaches.
	semantic := tuner.Config{GOP: 5 * opts.FPS}
	var mseThreshold float64
	if isLabelled(name) {
		train, err := synth.Preset(name, synth.PresetOpts{
			Seconds: opts.TrainSeconds, FPS: opts.FPS, Seed: 1,
		})
		if err != nil {
			return nil, err
		}
		best, err := sieve.Tune(ctx, train, sieve.DefaultSweep())
		if err != nil {
			return nil, fmt.Errorf("experiments: tuning %s: %w", name, err)
		}
		semantic = best.Config
		// Tune the MSE threshold on the same training split to match the
		// semantic sampling rate (the paper's fair-comparison rule).
		mse := vision.NewMSE()
		scores := make([]float64, train.NumFrames())
		for i := range scores {
			scores[i] = mse.Score(train.Frame(i))
		}
		mseThreshold = vision.ThresholdForShare(scores, best.SS)
	}

	spec := test.Spec()
	if asset.Semantic, err = encode(ctx, test, sieve.TunedParams(spec.Width, spec.Height, semantic)); err != nil {
		return nil, err
	}
	if asset.Default, err = encode(ctx, test, sieve.DefaultParams(spec.Width, spec.Height)); err != nil {
		return nil, err
	}
	if err := asset.analyzeBaselines(ctx, mseThreshold, isLabelled(name)); err != nil {
		return nil, err
	}
	return asset, nil
}

// encode drains v through the production encoder with parameters p and
// opens the stream for seeking.
func encode(ctx context.Context, v *synth.Video, p sieve.EncoderParams) (*container.Reader, error) {
	buf := &container.Buffer{}
	if _, err := sieve.EncodeStream(ctx, sieve.NewSynthSource(v), buf, sieve.WithTunedParams(p)); err != nil {
		return nil, err
	}
	return container.NewReader(buf, buf.Size())
}

// analyzeBaselines prices what each method ships: every semantic I-frame,
// and the uniform and MSE picks on the default stream. Unlabelled feeds
// ignore mseThreshold and match the MSE picks to the I-frame rate instead.
// The default stream is decoded twice — once to score every frame, once to
// price the MSE picks — so no decoded frame outlives its pass.
func (a *VideoAsset) analyzeBaselines(ctx context.Context, mseThreshold float64, labelled bool) error {
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
			return fmt.Errorf("experiments: %s I-frame %d: %w", a.Name, m.Index, err)
		}
		if a.ResizedIBytes[m.Index], err = resizedIntraBytes(img); err != nil {
			return err
		}
	}

	share := sampleShare(len(a.IFrames), a.NumFrames)
	uniform := make(map[int]bool, len(a.IFrames))
	for _, idx := range vision.UniformIndices(a.NumFrames, share) {
		uniform[idx] = true
	}
	a.UniformSamples = make(map[int]int)
	mse := vision.NewMSE()
	scores := make([]float64, a.NumFrames)
	err := a.decodeDefault(ctx, a.NumFrames, func(i int, img *frame.YUV) (err error) {
		scores[i] = mse.Score(img)
		if uniform[i] {
			a.UniformSamples[i], err = resizedIntraBytes(img)
		}
		return err
	})
	if err != nil {
		return err
	}
	if !labelled {
		mseThreshold = vision.ThresholdForShare(scores, share)
	}
	last := -1
	for i, s := range scores {
		if s >= mseThreshold {
			last = i
		}
	}
	a.MSESamples = make(map[int]int)
	return a.decodeDefault(ctx, last+1, func(i int, img *frame.YUV) (err error) {
		if scores[i] >= mseThreshold {
			a.MSESamples[i], err = resizedIntraBytes(img)
		}
		return err
	})
}

// decodeDefault decodes the default stream's first n frames in order into
// one reused frame, handing each to fn.
func (a *VideoAsset) decodeDefault(ctx context.Context, n int, fn func(i int, img *frame.YUV) error) error {
	info := a.Default.Info()
	dec, err := codec.NewDecoder(info.CodecParams())
	if err != nil {
		return err
	}
	img := frame.NewYUV(info.Width, info.Height)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		payload, err := a.Default.Payload(i)
		if err != nil {
			return err
		}
		if err := dec.DecodeInto(payload, img); err != nil {
			return fmt.Errorf("experiments: %s default frame %d: %w", a.Name, i, err)
		}
		if err := fn(i, img); err != nil {
			return err
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
func resizedIntraBytes(img *frame.YUV) (int, error) {
	small := frame.ResizeYUV(img, nnInputSize, nnInputSize)
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
// times of the modelled stages.
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
		return mc, fmt.Errorf("experiments: %s has no I-frames", a.Name)
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
	if _, err := resizedIntraBytes(img); err != nil {
		return mc, err
	}
	mc.ResizeEncode = clk.Now().Sub(start)

	// NN forward.
	if det == nil {
		det = nn.NewYOLite([]string{"car", "bus", "truck", "person", "boat"}, nnInputSize)
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

// stageNames are the three stages every frame passes through, in order.
var stageNames = [3]string{"edge", "wan", "cloud"}

// item is one frame's service time at each stage and the bytes it sends
// over the WAN.
type item struct {
	edge, wan, cloud time.Duration
	wanBytes         int64
}

// Evaluate runs one method over the assets, processed back to back as in
// the paper's post-event scenario where recorded videos are analysed from
// edge storage. Every frame is an item served by the edge, the paper's
// 30 Mbps WAN and the cloud in turn, with service times from the measured
// micro-costs; the result depends only on its arguments.
func Evaluate(method Method, assets []*VideoAsset, costs map[string]MicroCosts) (Report, error) {
	rep := Report{Method: method}
	wan, err := simnet.NewLink("edge-cloud", cluster.DefaultUplinkBps, cluster.DefaultUplinkLatency)
	if err != nil {
		return rep, err
	}
	var items []item
	for _, a := range assets {
		mc, ok := costs[a.Name]
		if !ok {
			return rep, fmt.Errorf("experiments: no measured costs for asset %q", a.Name)
		}
		if items, err = methodItems(&rep, items, a, mc); err != nil {
			return rep, err
		}
	}
	for i := range items {
		if items[i].wanBytes > 0 {
			items[i].wan = wan.TransferTime(items[i].wanBytes)
		}
		rep.EdgeCloudBytes += items[i].wanBytes
	}
	makespan, busy := simulate(items)
	rep.Frames = len(items)
	rep.Makespan = makespan
	if makespan > 0 {
		rep.Throughput = float64(len(items)) / makespan.Seconds()
	}
	b := 0
	for s := range busy {
		if busy[s] > busy[b] {
			b = s
		}
	}
	rep.Bottleneck = stageNames[b]
	return rep, nil
}

// simulate runs the items through the three stages. A stage serves one item
// at a time, in item order, and an item starts at a stage once the stage is
// free and the item has left the previous one; a zero service time passes
// the item straight through (a P-frame the seeker drops). It returns when
// the last item leaves the cloud and each stage's total service time.
func simulate(items []item) (makespan time.Duration, busy [3]time.Duration) {
	var done [3]time.Duration // when each stage finished its previous item
	for _, it := range items {
		var ready time.Duration // when the item left the previous stage
		for s, d := range [3]time.Duration{it.edge, it.wan, it.cloud} {
			ready = max(ready, done[s]) + d
			done[s] = ready
			busy[s] += d
		}
	}
	return done[2], busy
}

// methodItems appends one asset's per-frame service descriptors for
// rep.Method to items, and adds the asset's camera→edge bytes and analysed
// frames to rep. WAN transfer times are left to Evaluate.
func methodItems(rep *Report, items []item, a *VideoAsset, mc MicroCosts) ([]item, error) {
	switch rep.Method {
	case IFrameEdgeCloudNN:
		rep.CameraEdgeBytes += a.Semantic.PayloadBytes(nil)
		for i := 0; i < a.NumFrames; i++ {
			it := item{edge: mc.Seek}
			if n, isI := a.ResizedIBytes[i]; isI {
				it.edge += mc.DecodeI + mc.ResizeEncode
				it.wanBytes = int64(n)
				it.cloud = onCloud(mc.NN)
				rep.Analysed++
			}
			items = append(items, it)
		}
	case IFrameCloudCloudNN:
		// Full semantic stream crosses both hops; seek and NN in cloud.
		rep.CameraEdgeBytes += a.Semantic.PayloadBytes(nil)
		for i := 0; i < a.NumFrames; i++ {
			it := item{wanBytes: int64(a.Semantic.Meta(i).Size), cloud: onCloud(mc.Seek)}
			if _, isI := a.ResizedIBytes[i]; isI {
				it.cloud += onCloud(mc.DecodeI + mc.NN)
				rep.Analysed++
			}
			items = append(items, it)
		}
	case IFrameEdgeEdgeNN:
		rep.CameraEdgeBytes += a.Semantic.PayloadBytes(nil)
		for i := 0; i < a.NumFrames; i++ {
			it := item{edge: mc.Seek}
			if _, isI := a.ResizedIBytes[i]; isI {
				it.edge += mc.DecodeI + mc.NN
				it.wanBytes = labelTupleBytes
				rep.Analysed++
			}
			items = append(items, it)
		}
	case UniformEdgeCloudNN, MSEEdgeCloudNN:
		samples, perFrame := a.UniformSamples, time.Duration(0)
		if rep.Method == MSEEdgeCloudNN {
			samples, perFrame = a.MSESamples, mc.MSE
		}
		rep.CameraEdgeBytes += a.Default.PayloadBytes(nil)
		for i := 0; i < a.NumFrames; i++ {
			it := item{edge: decodeCost(a, mc, i) + perFrame}
			if n, ok := samples[i]; ok {
				it.edge += mc.ResizeEncode
				it.wanBytes = int64(n)
				it.cloud = onCloud(mc.NN)
				rep.Analysed++
			}
			items = append(items, it)
		}
	default:
		return items, fmt.Errorf("experiments: unknown method %q", rep.Method)
	}
	return items, nil
}

func decodeCost(a *VideoAsset, mc MicroCosts, i int) time.Duration {
	if a.Default.Meta(i).Type == codec.FrameI {
		return mc.DecodeI
	}
	return mc.DecodeP
}

// onCloud scales an edge service time to the cloud tier.
func onCloud(d time.Duration) time.Duration {
	return time.Duration(float64(d) / cloudSpeed)
}

// isLabelled reports whether a preset carries ground-truth labels.
func isLabelled(name synth.PresetName) bool {
	for _, p := range synth.LabelledPresets() {
		if p == name {
			return true
		}
	}
	return false
}
