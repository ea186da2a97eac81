package pipeline

import (
	"context"
	"testing"
	"time"

	"sieve/internal/clock"
	"sieve/internal/codec"
	"sieve/internal/nn"
	"sieve/internal/runner"
	"sieve/internal/synth"
)

// testAssetOpts returns the package tests' asset scale: full-sized normally,
// shrunk under -short so the race-enabled CI job stays fast.
func testAssetOpts() AssetOpts {
	if testing.Short() {
		return AssetOpts{Seconds: 16, FPS: 5, TrainSeconds: 24}
	}
	return AssetOpts{Seconds: 40, FPS: 5, TrainSeconds: 60}
}

// testAsset prepares a small Jackson asset once for the package's tests.
var testAssetCache *VideoAsset

func testAsset(t *testing.T) *VideoAsset {
	t.Helper()
	if testAssetCache != nil {
		return testAssetCache
	}
	a, err := PrepareAsset(context.Background(), synth.JacksonSquare, testAssetOpts())
	if err != nil {
		t.Fatalf("PrepareAsset: %v", err)
	}
	testAssetCache = a
	return a
}

func TestPrepareAssetBasics(t *testing.T) {
	a := testAsset(t)
	opts := testAssetOpts()
	if want := opts.Seconds * opts.FPS; a.NumFrames != want {
		t.Fatalf("frames = %d, want %d", a.NumFrames, want)
	}
	if len(a.IFrames) == 0 {
		t.Fatal("no I-frames in semantic stream")
	}
	// Paper: I-frames are a small fraction of the stream.
	if share := float64(len(a.IFrames)) / float64(a.NumFrames); share > 0.2 {
		t.Fatalf("I-frame share %.3f too high", share)
	}
	// Every I-frame must have a priced resized payload.
	for _, idx := range a.IFrames {
		if a.ResizedIBytes[idx] <= 0 {
			t.Fatalf("I-frame %d has no resized byte price", idx)
		}
	}
	// The baselines sample about as many frames as the I-frame count
	// (the paper's fair-comparison rule).
	if len(a.UniformSamples) == 0 || len(a.MSESamples) == 0 {
		t.Fatal("baseline samples missing")
	}
	ratio := float64(len(a.UniformSamples)) / float64(len(a.IFrames))
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("uniform samples %d vs %d I-frames", len(a.UniformSamples), len(a.IFrames))
	}
}

func TestPrepareAssetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PrepareAsset(ctx, synth.JacksonSquare, AssetOpts{Seconds: 4, FPS: 2, TrainSeconds: 4}); err == nil {
		t.Fatal("cancelled PrepareAsset succeeded")
	}
}

func TestSemanticStreamLargerThanDefault(t *testing.T) {
	// Figure 5's camera→edge observation: semantic encoding adds I-frames,
	// so the stream is somewhat larger than the default encoding.
	a := testAsset(t)
	sem := a.Semantic.PayloadBytes(nil)
	def := a.Default.PayloadBytes(nil)
	if sem <= def {
		t.Skipf("semantic %d <= default %d (tuned config may have fewer I-frames at this scale)", sem, def)
	}
	if float64(sem) > 2*float64(def) {
		t.Fatalf("semantic stream %dB unreasonably larger than default %dB", sem, def)
	}
}

func TestMeasureCosts(t *testing.T) {
	a := testAsset(t)
	det := nn.NewYOLite([]string{"car"}, 64) // small input keeps the test fast
	mc, err := MeasureCosts(a, det, clock.Wall())
	if err != nil {
		t.Fatal(err)
	}
	if mc.Seek <= 0 || mc.DecodeI <= 0 || mc.DecodeP <= 0 || mc.MSE <= 0 ||
		mc.ResizeEncode <= 0 || mc.NN <= 0 {
		t.Fatalf("non-positive cost: %+v", mc)
	}
	// The core SiEVE claim: seeking is orders of magnitude cheaper than
	// decoding a frame.
	if mc.Seek*50 > mc.DecodeP {
		t.Fatalf("seek %v not well below decode %v", mc.Seek, mc.DecodeP)
	}
}

// stepClock advances a fixed amount on every Now read, making every timing
// loop in MeasureCosts terminate after a deterministic number of
// iterations.
type stepClock struct {
	*clock.Virtual
	step time.Duration
}

func (c stepClock) Now() time.Time {
	_ = c.Sleep(context.Background(), c.step) // Virtual.Sleep fails only on a cancelled context
	return c.Virtual.Now()
}

func TestMeasureCostsDeterministicUnderStepClock(t *testing.T) {
	a := testAsset(t)
	det := nn.NewYOLite([]string{"car"}, 64)
	measure := func() MicroCosts {
		clk := stepClock{Virtual: clock.NewVirtual(time.Unix(0, 0)), step: 100 * time.Microsecond}
		mc, err := MeasureCosts(a, det, clk)
		if err != nil {
			t.Fatal(err)
		}
		return mc
	}
	first, second := measure(), measure()
	if first != second {
		t.Fatalf("MeasureCosts not deterministic under a step clock:\n%+v\n%+v", first, second)
	}
	if first.Seek <= 0 || first.DecodeI <= 0 || first.NN <= 0 {
		t.Fatalf("non-positive cost under step clock: %+v", first)
	}
}

func TestEvaluateAllMethods(t *testing.T) {
	a := testAsset(t)
	det := nn.NewYOLite([]string{"car"}, 64)
	mc, err := MeasureCosts(a, det, clock.Wall())
	if err != nil {
		t.Fatal(err)
	}
	costs := map[string]MicroCosts{a.Name: mc}
	cluster := DefaultCluster()

	reports := make(map[Method]Report, 5)
	for _, m := range AllMethods() {
		rep, err := Evaluate(context.Background(), m, []*VideoAsset{a}, costs, cluster, nil)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if rep.Frames != a.NumFrames {
			t.Fatalf("%s frames %d", m, rep.Frames)
		}
		if rep.Throughput <= 0 {
			t.Fatalf("%s throughput %v", m, rep.Throughput)
		}
		reports[m] = rep
	}

	// Figure 4's headline orderings:
	// (1) semantic-encoding methods beat decode-everything baselines;
	if reports[IFrameEdgeCloudNN].Throughput <= reports[UniformEdgeCloudNN].Throughput {
		t.Errorf("I-frame edge+cloud (%.0f fps) should beat uniform sampling (%.0f fps)",
			reports[IFrameEdgeCloudNN].Throughput, reports[UniformEdgeCloudNN].Throughput)
	}
	// Both decode every frame; MSE adds similarity work on top, so uniform
	// is at least as fast (ties happen when decode dominates) — provided
	// MSE's tuned threshold didn't select fewer frames to ship, which can
	// happen at small scales and hands MSE less downstream work.
	if len(a.MSESamples) >= len(a.UniformSamples) &&
		reports[UniformEdgeCloudNN].Throughput < reports[MSEEdgeCloudNN].Throughput*0.99 {
		t.Errorf("uniform (%.0f fps) should be at least as fast as MSE (%.0f fps)",
			reports[UniformEdgeCloudNN].Throughput, reports[MSEEdgeCloudNN].Throughput)
	}
	// (2) the 3-tier split beats shipping everything to the cloud.
	if reports[IFrameEdgeCloudNN].Throughput <= reports[IFrameCloudCloudNN].Throughput {
		t.Errorf("3-tier (%.0f fps) should beat cloud-only (%.0f fps)",
			reports[IFrameEdgeCloudNN].Throughput, reports[IFrameCloudCloudNN].Throughput)
	}

	// Figure 5's byte orderings: I-frame edge→cloud traffic is a small
	// fraction of shipping the whole stream.
	if reports[IFrameEdgeCloudNN].EdgeCloudBytes*2 >= reports[IFrameCloudCloudNN].EdgeCloudBytes {
		t.Errorf("I-frame edge+cloud ships %dB, cloud-only %dB — want a large reduction",
			reports[IFrameEdgeCloudNN].EdgeCloudBytes, reports[IFrameCloudCloudNN].EdgeCloudBytes)
	}
	// Edge-NN ships almost nothing.
	if reports[IFrameEdgeEdgeNN].EdgeCloudBytes >= reports[IFrameEdgeCloudNN].EdgeCloudBytes {
		t.Errorf("edge-NN ships %dB, should be below I-frame shipping %dB",
			reports[IFrameEdgeEdgeNN].EdgeCloudBytes, reports[IFrameEdgeCloudNN].EdgeCloudBytes)
	}
}

// TestEvaluateParallelMatchesSequential fixes the micro-costs (the only
// timing input) and checks the whole Report — including the modelled
// makespan and throughput — is bit-identical at every pool size. This is
// the "parallelism changes wall-clock only" contract at its strictest.
func TestEvaluateParallelMatchesSequential(t *testing.T) {
	a := testAsset(t)
	fixed := MicroCosts{
		Seek:         50 * time.Nanosecond,
		DecodeI:      900 * time.Microsecond,
		DecodeP:      400 * time.Microsecond,
		MSE:          150 * time.Microsecond,
		ResizeEncode: 700 * time.Microsecond,
		NN:           12 * time.Millisecond,
	}
	// Evaluate the same 3-asset workload; reusing one asset three times is
	// fine — Evaluate treats each entry independently.
	assets := []*VideoAsset{a, a, a}
	costs := map[string]MicroCosts{a.Name: fixed}
	cluster := DefaultCluster()
	for _, m := range AllMethods() {
		seq, err := Evaluate(context.Background(), m, assets, costs, cluster, runner.Sequential())
		if err != nil {
			t.Fatalf("%s sequential: %v", m, err)
		}
		par, err := Evaluate(context.Background(), m, assets, costs, cluster, runner.New(4))
		if err != nil {
			t.Fatalf("%s parallel: %v", m, err)
		}
		if seq != par {
			t.Errorf("%s: parallel report differs from sequential:\nseq %+v\npar %+v", m, seq, par)
		}
	}
}

func TestEvaluateUnknownMethod(t *testing.T) {
	a := testAsset(t)
	_, err := Evaluate(context.Background(), Method("nope"), []*VideoAsset{a},
		map[string]MicroCosts{a.Name: {}}, DefaultCluster(), nil)
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	_, err = Evaluate(context.Background(), IFrameEdgeCloudNN, []*VideoAsset{a}, nil, DefaultCluster(), nil)
	if err == nil {
		t.Fatal("missing costs accepted")
	}
}

func TestIFrameTypesConsistent(t *testing.T) {
	a := testAsset(t)
	for _, idx := range a.IFrames {
		if a.Semantic.Meta(idx).Type != codec.FrameI {
			t.Fatalf("frame %d listed as I but typed %v", idx, a.Semantic.Meta(idx).Type)
		}
	}
}

func TestAssetOptsQualityValidation(t *testing.T) {
	// 0 selects the default.
	o := AssetOpts{}
	if err := o.fill(); err != nil || o.Quality != 85 {
		t.Fatalf("fill() = %v, quality %d; want nil, 85", err, o.Quality)
	}
	// The codec floor (1) must be expressible — an explicit lowest-quality
	// request may not be silently rewritten.
	o = AssetOpts{Quality: 1}
	if err := o.fill(); err != nil || o.Quality != 1 {
		t.Fatalf("fill() = %v, quality %d; want nil, 1", err, o.Quality)
	}
	for _, q := range []int{-3, 101} {
		o = AssetOpts{Quality: q}
		if err := o.fill(); err == nil {
			t.Fatalf("quality %d accepted", q)
		}
	}
	// PrepareAsset rejects out-of-range quality before doing any work.
	if _, err := PrepareAsset(context.Background(), synth.JacksonSquare, AssetOpts{Quality: -1}); err == nil {
		t.Fatal("PrepareAsset accepted quality -1")
	}
}
