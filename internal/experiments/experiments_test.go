package experiments

import (
	"context"
	"strings"
	"testing"

	"sieve/internal/synth"
)

// Small scales keep these integration tests CI-sized; the bench harness
// runs the full-sized versions.
var tinyOpts = Opts{Seconds: 40, TrainSeconds: 60, FPS: 5}

func TestTable1(t *testing.T) {
	rows := Table1(tinyOpts)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	labelled := 0
	for _, r := range rows {
		if r.Labelled {
			labelled++
		}
		if r.Resolution == "" || r.Objects == "" {
			t.Fatalf("incomplete row %+v", r)
		}
	}
	if labelled != 3 {
		t.Fatalf("labelled = %d, want 3", labelled)
	}
	text := RenderTable1(rows)
	if !strings.Contains(text, "jackson_square") || !strings.Contains(text, "1920x1080") {
		t.Fatalf("render missing content:\n%s", text)
	}
}

func TestTable2SemanticBeatsDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning sweep is slow")
	}
	// Event cycles are tens of seconds, so the comparison needs minutes of
	// video per feed; assert the table-level means (the paper's claim) —
	// a single feed's split can flip at small scale.
	rows, err := Table2(context.Background(), Opts{Seconds: 150, TrainSeconds: 150, FPS: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var semAcc, defAcc, semF1, defF1 float64
	for _, r := range rows {
		semAcc += r.Semantic.Acc
		defAcc += r.Default.Acc
		semF1 += r.Semantic.F1
		defF1 += r.Default.F1
	}
	if semF1 < defF1 {
		t.Errorf("mean tuned F1 %.3f < mean default %.3f\n%s", semF1/3, defF1/3, RenderTable2(rows))
	}
	if semAcc < defAcc {
		t.Errorf("mean tuned acc %.3f < mean default %.3f\n%s", semAcc/3, defAcc/3, RenderTable2(rows))
	}
	_ = RenderTable2(rows)
}

func TestFigure3JacksonOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("SIFT scoring is slow")
	}
	res, err := Figure3(context.Background(), synth.JacksonSquare, Opts{Seconds: 60, FPS: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	// The paper's Jackson result: SiEVE beats both baselines on average,
	// and MSE suffers most (clutter).
	if gap := res.MeanGapOver("SiEVE", "MSE"); gap <= 0 {
		t.Errorf("SiEVE should beat MSE on jackson (gap %.3f)", gap)
	}
	if gap := res.MeanGapOver("SiEVE", "SIFT"); gap <= 0 {
		t.Errorf("SiEVE should beat SIFT on jackson (gap %.3f)", gap)
	}
	text := res.Render()
	if !strings.Contains(text, "SiEVE") {
		t.Fatalf("render:\n%s", text)
	}
}

func TestFigure3ParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("SIFT scoring is slow")
	}
	// The concurrent engine's contract: parallelism changes wall-clock
	// only. Figure 3 is fully deterministic (no timing inputs), so the
	// rendering must be byte-identical across pool sizes.
	opts := Opts{Seconds: 20, FPS: 5}
	seqOpts, parOpts := opts, opts
	seqOpts.Parallel = 1
	parOpts.Parallel = 4
	seq, err := Figure3(context.Background(), synth.JacksonSquare, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Figure3(context.Background(), synth.JacksonSquare, parOpts)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Render() != par.Render() {
		t.Fatalf("parallel render differs from sequential:\n--- sequential\n%s\n--- parallel\n%s",
			seq.Render(), par.Render())
	}
}

func TestTable3SpeedOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("decode timing is slow")
	}
	// Table 3 serialises its timed sections internally, so any pool size
	// yields uncontended per-host rates; exercise the parallel setup phase.
	rows, err := Table3(context.Background(), Opts{Seconds: 8, FPS: 5, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's headline: seeking is ~100x faster than decode+MSE,
		// and SIFT is slower than MSE. Accept >=20x as the shape at our
		// scaled frame counts.
		if r.SiEVEFPS < 20*r.MSEFPS {
			t.Errorf("%s: SiEVE %.0f fps not >> MSE %.1f fps", r.Dataset, r.SiEVEFPS, r.MSEFPS)
		}
		if r.SIFTFPS > r.MSEFPS {
			t.Errorf("%s: SIFT %.1f fps should be below MSE %.1f fps", r.Dataset, r.SIFTFPS, r.MSEFPS)
		}
	}
	_ = RenderTable3(rows)
}

func TestE2EOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("asset preparation is slow")
	}
	results, err := E2E(context.Background(), []int{1}, Opts{Seconds: 30, TrainSeconds: 50, FPS: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(results[0].Reports) != 5 {
		t.Fatalf("results shape: %+v", results)
	}
	byMethod := map[string]float64{}
	for _, rep := range results[0].Reports {
		byMethod[string(rep.Method)] = rep.Throughput
	}
	if byMethod["iframe-edge+cloud-nn"] <= byMethod["mse-edge+cloud-nn"] {
		t.Errorf("semantic method should beat MSE baseline: %+v", byMethod)
	}
	_ = RenderFigure4(results)
	_ = RenderFigure5(results)
}

// TestE2EConcurrent exercises the full concurrent engine — parallel asset
// preparation and the methods × workloads grid — at a scale small enough
// for -short, so the CI race job covers every concurrency path on each run.
func TestE2EConcurrent(t *testing.T) {
	results, err := E2E(context.Background(), []int{1, 1}, Opts{
		Seconds: 6, TrainSeconds: 10, FPS: 2, Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, res := range results {
		if len(res.Reports) != 5 {
			t.Fatalf("reports = %d", len(res.Reports))
		}
		for _, rep := range res.Reports {
			if rep.Frames <= 0 || rep.Throughput <= 0 {
				t.Fatalf("degenerate report %+v", rep)
			}
		}
	}
	// Identical workloads evaluated in different grid cells must agree on
	// every timing-independent field.
	for i := range results[0].Reports {
		a, b := results[0].Reports[i], results[1].Reports[i]
		if a.Method != b.Method || a.Frames != b.Frames || a.Analysed != b.Analysed ||
			a.CameraEdgeBytes != b.CameraEdgeBytes || a.EdgeCloudBytes != b.EdgeCloudBytes {
			t.Errorf("grid cells for the same workload disagree:\n%+v\n%+v", a, b)
		}
	}
}

// TestE2EParallelMatchesSequential pins the byte-identical contract on the
// timing-independent outputs: method order, frame counts and both hops'
// byte totals must not depend on the pool size. (Throughput is measured
// from this host's micro-costs and varies run to run by nature.)
func TestE2EParallelMatchesSequential(t *testing.T) {
	opts := Opts{Seconds: 6, TrainSeconds: 10, FPS: 2}
	seqOpts, parOpts := opts, opts
	seqOpts.Parallel = 1
	parOpts.Parallel = 4
	seq, err := E2E(context.Background(), []int{1}, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := E2E(context.Background(), []int{1}, parOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("result lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].NumVideos != par[i].NumVideos {
			t.Fatalf("workload order differs at %d", i)
		}
		for j := range seq[i].Reports {
			a, b := seq[i].Reports[j], par[i].Reports[j]
			if a.Method != b.Method || a.Frames != b.Frames || a.Analysed != b.Analysed ||
				a.CameraEdgeBytes != b.CameraEdgeBytes || a.EdgeCloudBytes != b.EdgeCloudBytes {
				t.Errorf("reports differ between pool sizes:\nsequential %+v\nparallel   %+v", a, b)
			}
		}
	}
	// Figure 5 renders only timing-independent fields: byte-identical.
	if RenderFigure5(seq) != RenderFigure5(par) {
		t.Errorf("Figure 5 rendering differs:\n--- sequential\n%s\n--- parallel\n%s",
			RenderFigure5(seq), RenderFigure5(par))
	}
}
