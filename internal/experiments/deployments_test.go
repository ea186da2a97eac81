package experiments

import (
	"context"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sieve/internal/clock"
	"sieve/internal/codec"
	"sieve/internal/nn"
	"sieve/internal/synth"
)

// testAssetOpts returns the package tests' asset scale: full-sized normally,
// shrunk under -short so the race-enabled CI job stays fast.
func testAssetOpts() Opts {
	if testing.Short() {
		return Opts{Seconds: 16, FPS: 5, TrainSeconds: 24}
	}
	return Opts{Seconds: 40, FPS: 5, TrainSeconds: 60}
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
	if _, err := PrepareAsset(ctx, synth.JacksonSquare, Opts{Seconds: 4, FPS: 2, TrainSeconds: 4}); err == nil {
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

// TestPrepareAssetUnlabelledMemoryFlat pins that pricing the MSE baseline
// of an unlabelled feed keeps no decoded frame past its decode pass: the
// peak live heap of PrepareAsset must not grow with the stream's length.
func TestPrepareAssetUnlabelledMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("renders and encodes 720p frames")
	}
	peak := func(seconds int) uint64 {
		var a *VideoAsset
		p := peakLiveHeap(func() {
			var err error
			a, err = PrepareAsset(context.Background(), synth.Amsterdam, Opts{Seconds: seconds, FPS: 1})
			if err != nil {
				t.Fatal(err)
			}
		})
		if len(a.MSESamples) == 0 {
			t.Fatalf("%d s: no MSE picks", seconds)
		}
		return p
	}
	const frameBytes = 1280 * 720 * 3 / 2 // one decoded amsterdam frame
	short, long := peak(5), peak(20)
	t.Logf("peak live heap: %d MB at 5 frames, %d MB at 20", short>>20, long>>20)
	// Holding every decoded frame would add 15 frames of heap; the two
	// encoded streams grow by well under half of that.
	if long > short+15*frameBytes/2 {
		t.Fatalf("peak live heap grows with the stream: %d MB at 5 frames, %d MB at 20",
			short>>20, long>>20)
	}
}

// peakLiveHeap runs fn and returns the largest live heap a GC cycle marked
// meanwhile. The collector runs at every 10 % of heap growth, so a peak
// escapes the reading by at most that much.
func peakLiveHeap(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	var (
		mu      sync.Mutex
		peak    uint64
		stopped bool
	)
	type sentinel struct{ _ [64]byte }
	var onGC func(*sentinel)
	onGC = func(*sentinel) {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		mu.Lock()
		defer mu.Unlock()
		peak = max(peak, s[0].Value.Uint64())
		if !stopped {
			runtime.SetFinalizer(new(sentinel), onGC)
		}
	}
	runtime.SetFinalizer(new(sentinel), onGC)
	fn()
	mu.Lock()
	defer mu.Unlock()
	stopped = true
	return peak
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

	reports := make(map[Method]Report, 5)
	for _, m := range AllMethods() {
		rep, err := Evaluate(m, []*VideoAsset{a}, costs)
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

func TestEvaluateUnknownMethod(t *testing.T) {
	a := testAsset(t)
	_, err := Evaluate(Method("nope"), []*VideoAsset{a}, map[string]MicroCosts{a.Name: {}})
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	_, err = Evaluate(IFrameEdgeCloudNN, []*VideoAsset{a}, nil)
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

// constItems returns n items with the same service time at each stage.
func constItems(n int, edge, wan, cloud time.Duration) []item {
	items := make([]item, n)
	for i := range items {
		items[i] = item{edge: edge, wan: wan, cloud: cloud}
	}
	return items
}

func TestSimulateSingleStage(t *testing.T) {
	makespan, busy := simulate(constItems(10, time.Millisecond, 0, 0))
	if makespan != 10*time.Millisecond {
		t.Fatalf("makespan %v", makespan)
	}
	if busy[0] != makespan || busy[1] != 0 || busy[2] != 0 {
		t.Fatalf("busy %v", busy)
	}
}

func TestSimulateBottleneck(t *testing.T) {
	// Steady-state throughput equals the slowest stage's rate.
	makespan, busy := simulate(constItems(1000, time.Millisecond, 4*time.Millisecond, 2*time.Millisecond))
	if tp, want := 1000/makespan.Seconds(), 250.0; tp < want*0.98 || tp > want*1.02 {
		t.Fatalf("throughput %v, want ~%v", tp, want)
	}
	if u := float64(busy[1]) / float64(makespan); u < 0.99 {
		t.Fatalf("bottleneck utilisation %v", u)
	}
	if busy[1] <= busy[0] || busy[1] <= busy[2] {
		t.Fatalf("busy %v: the WAN should be the busiest stage", busy)
	}
}

func TestSimulateZeroServicePassThrough(t *testing.T) {
	// Items with zero service time (P-frames skipped by the seeker) cost
	// nothing anywhere.
	items := make([]item, 100)
	for i := range items {
		if i%10 == 0 { // I-frames only
			items[i].edge = time.Millisecond
		}
	}
	if makespan, _ := simulate(items); makespan != 10*time.Millisecond {
		t.Fatalf("makespan %v, want 10ms", makespan)
	}
}

func TestSimulateOverlapsStages(t *testing.T) {
	// Two equal stages: makespan = (n+1) * d, not 2n*d.
	d := time.Millisecond
	if makespan, _ := simulate(constItems(100, d, 0, d)); makespan != 101*d {
		t.Fatalf("makespan %v, want %v", makespan, 101*d)
	}
}

func TestSimulateMakespanLowerBound(t *testing.T) {
	// The makespan is at least every stage's total busy time.
	f := func(seed int64, nItems uint8) bool {
		items := make([]item, int(nItems%50)+1)
		svc := func(stage, i int) time.Duration {
			return time.Duration((seed>>uint(stage*7))&0xF+int64(i%3)) * time.Millisecond
		}
		for i := range items {
			items[i] = item{edge: svc(0, i), wan: svc(1, i), cloud: svc(2, i)}
		}
		makespan, busy := simulate(items)
		for _, b := range busy {
			if b > makespan {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
