package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sieve/internal/container"
	"sieve/internal/runner"
)

// goldenAsset is what TestGoldenHarness pins of one prepared asset.
type goldenAsset struct {
	name, semantic, def string // name, SHA-256 of the two SVF streams
	iframes             []int
	resizedI, uniform   map[int]int
	mse                 map[int]int
}

// TestGoldenHarness pins the harness's outputs at
// Opts{Seconds: 6, TrainSeconds: 10, FPS: 2}: the bytes of every asset's
// semantic and default streams, its sampling and pricing, every method's
// full Report at fixed micro-costs for 1, 3 and 5 videos, and Figure 5.
// Any change to the encoder path, the sampling, the WAN model or the
// pipeline recurrence changes one of these values.
func TestGoldenHarness(t *testing.T) {
	ctx := context.Background()
	assets, err := prepareAssets(ctx, 5, Opts{Seconds: 6, TrainSeconds: 10, FPS: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []goldenAsset{
		{name: "jackson_square",
			semantic: "3fe796a2f23098bdbbf381d75380919404566e0fe657e85a7eb596883517387d",
			def:      "47478a2900c9a540b92ee92d8754e9ca11f6fec67c7ff6018fb8ce0c524601b4",
			iframes:  []int{0},
			resizedI: map[int]int{0: 20352},
			uniform:  map[int]int{0: 20352},
			mse:      map[int]int{0: 20352}},
		{name: "coral_reef",
			semantic: "85bc254fdd9ffc77650eb1d389feb2e3287e204c07887ba17a422998f86470e2",
			def:      "6c1798af8c6a2951f71f5bcaf8fc7f0f73ce708bdfe786dcdb7ca9f2e0d8902b",
			iframes:  []int{0},
			resizedI: map[int]int{0: 17966},
			uniform:  map[int]int{0: 17966},
			mse:      map[int]int{0: 17966}},
		{name: "venice",
			semantic: "a04c0911172b00e4831cfaac1effef21e340a17756f88731405529919687ada4",
			def:      "c42b33bb519dfe04455996be54dff10bd5df02037b30b38d449efe1256a932b4",
			iframes:  []int{0},
			resizedI: map[int]int{0: 18029},
			uniform:  map[int]int{0: 18029},
			mse:      map[int]int{0: 18029}},
		{name: "taipei",
			semantic: "a02939bc9b181a8c3457a520ef751767ccb89faecbdb51b1b3b931183ca14477",
			def:      "8d9580acd5b0f8e5059442effbb4c77072785c13000b53b7e9f7cf23058061fc",
			iframes:  []int{0, 10},
			resizedI: map[int]int{0: 18798, 10: 18830},
			uniform:  map[int]int{0: 18798, 6: 18689},
			mse:      map[int]int{0: 18798, 9: 18713}},
		{name: "amsterdam",
			semantic: "ca61ed5c8260de138df0d8b0bd3431a66f22e83c08e050821408696de24ff1d5",
			def:      "398416a2c0cfb38b6b8bad0387603ca1cbe03f035a5da48b1bb0b8b6aba2b563",
			iframes:  []int{0, 10},
			resizedI: map[int]int{0: 17866, 10: 17910},
			uniform:  map[int]int{0: 17866, 6: 17831},
			mse:      map[int]int{0: 17866, 11: 17878}},
	}
	for i, a := range assets {
		got := goldenAsset{
			name: a.Name, semantic: streamSHA(t, a.Semantic), def: streamSHA(t, a.Default),
			iframes: a.IFrames, resizedI: a.ResizedIBytes, uniform: a.UniformSamples, mse: a.MSESamples,
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("asset %d:\ngot  %+v\nwant %+v", i, got, want[i])
		}
	}

	fixed := MicroCosts{
		Seek:         50 * time.Nanosecond,
		DecodeI:      900 * time.Microsecond,
		DecodeP:      400 * time.Microsecond,
		MSE:          150 * time.Microsecond,
		ResizeEncode: 700 * time.Microsecond,
		NN:           12 * time.Millisecond,
	}
	costs := make(map[string]MicroCosts, len(assets))
	for _, a := range assets {
		costs[a.Name] = fixed
	}
	results, err := evaluateGrid(ctx, runner.New(1), []int{1, 3, 5}, assets, costs)
	if err != nil {
		t.Fatal(err)
	}
	wantReports := [][]Report{{
		{Method: "iframe-edge+cloud-nn", Frames: 12, Analysed: 1, Throughput: 386.75680248813546, Makespan: 31027250, CameraEdgeBytes: 345782, EdgeCloudBytes: 20352, Bottleneck: "wan"},
		{Method: "iframe-cloud+cloud-nn", Frames: 12, Analysed: 1, Throughput: 36.12188843607259, Makespan: 332208545, CameraEdgeBytes: 345782, EdgeCloudBytes: 345782, Bottleneck: "wan"},
		{Method: "iframe-edge+edge-nn", Frames: 12, Analysed: 1, Throughput: 364.6465118233745, Makespan: 32908583, CameraEdgeBytes: 345782, EdgeCloudBytes: 32, Bottleneck: "wan"},
		{Method: "uniform-edge+cloud-nn", Frames: 12, Analysed: 1, Throughput: 386.75742574257424, Makespan: 31027200, CameraEdgeBytes: 345782, EdgeCloudBytes: 20352, Bottleneck: "wan"},
		{Method: "mse-edge+cloud-nn", Frames: 12, Analysed: 1, Throughput: 384.8966552480659, Makespan: 31177200, CameraEdgeBytes: 345782, EdgeCloudBytes: 20352, Bottleneck: "wan"},
	}, {
		{Method: "iframe-edge+cloud-nn", Frames: 36, Analysed: 3, Throughput: 446.5065550387049, Makespan: 80625916, CameraEdgeBytes: 3464544, EdgeCloudBytes: 56347, Bottleneck: "wan"},
		{Method: "iframe-cloud+cloud-nn", Frames: 36, Analysed: 3, Throughput: 21.899429964225362, Makespan: 1643878405, CameraEdgeBytes: 3464544, EdgeCloudBytes: 3464544, Bottleneck: "wan"},
		{Method: "iframe-edge+edge-nn", Frames: 36, Analysed: 3, Throughput: 493.6534743763474, Makespan: 72925649, CameraEdgeBytes: 3464544, EdgeCloudBytes: 96, Bottleneck: "wan"},
		{Method: "uniform-edge+cloud-nn", Frames: 36, Analysed: 3, Throughput: 446.5068319390206, Makespan: 80625866, CameraEdgeBytes: 3464544, EdgeCloudBytes: 56347, Bottleneck: "wan"},
		{Method: "mse-edge+cloud-nn", Frames: 36, Analysed: 3, Throughput: 445.6776730812146, Makespan: 80775866, CameraEdgeBytes: 3464544, EdgeCloudBytes: 56347, Bottleneck: "wan"},
	}, {
		{Method: "iframe-edge+cloud-nn", Frames: 60, Analysed: 7, Throughput: 332.96279199067993, Makespan: 180200315, CameraEdgeBytes: 7428408, EdgeCloudBytes: 129751, Bottleneck: "wan"},
		{Method: "iframe-cloud+cloud-nn", Frames: 60, Analysed: 7, Throughput: 18.862533894900604, Makespan: 3180908797, CameraEdgeBytes: 7428408, EdgeCloudBytes: 7428408, Bottleneck: "wan"},
		{Method: "iframe-edge+edge-nn", Frames: 60, Analysed: 7, Throughput: 392.25997584293094, Makespan: 152959781, CameraEdgeBytes: 7428408, EdgeCloudBytes: 224, Bottleneck: "wan"},
		{Method: "uniform-edge+cloud-nn", Frames: 60, Analysed: 7, Throughput: 333.0713209283289, Makespan: 180141598, CameraEdgeBytes: 7000065, EdgeCloudBytes: 129531, Bottleneck: "wan"},
		{Method: "mse-edge+cloud-nn", Frames: 60, Analysed: 7, Throughput: 332.75926629044204, Makespan: 180310531, CameraEdgeBytes: 7000065, EdgeCloudBytes: 129602, Bottleneck: "wan"},
	}}
	for w, res := range results {
		for i, got := range res.Reports {
			if got != wantReports[w][i] {
				t.Errorf("%d video(s), %s:\ngot  %#v\nwant %#v", res.NumVideos, got.Method, got, wantReports[w][i])
			}
		}
	}

	const wantFig5 = `Figure 5 — data transfer, 5 video(s)
method                          camera→edge       edge→cloud
iframe-edge+cloud-nn                7.43 MB          0.13 MB
iframe-cloud+cloud-nn               7.43 MB          7.43 MB
iframe-edge+edge-nn                 7.43 MB          0.00 MB
uniform-edge+cloud-nn               7.00 MB          0.13 MB
mse-edge+cloud-nn                   7.00 MB          0.13 MB
`
	if got := RenderFigure5(results); got != wantFig5 {
		t.Errorf("Figure 5:\n%s\nwant\n%s", got, wantFig5)
	}
}

// streamSHA returns the SHA-256 of the SVF stream r reads. The stream is
// rewritten from r's header, index and payloads — everything the file
// holds — so the digest is that of the bytes the encoder wrote.
func streamSHA(t *testing.T, r *container.Reader) string {
	t.Helper()
	buf := &container.Buffer{}
	w, err := container.NewWriter(buf, r.Info())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.NumFrames(); i++ {
		p, err := r.Payload(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteFrame(r.Meta(i).Type, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}
