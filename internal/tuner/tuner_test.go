package tuner

import (
	"context"
	"path/filepath"
	"testing"

	"os"

	"sieve/internal/codec"
	"sieve/internal/frame"
	"sieve/internal/synth"
)

// analyzeCosts is AnalyzeCostsContext with no deadline.
func analyzeCosts(tb testing.TB, src Source) []codec.Cost {
	tb.Helper()
	costs, err := AnalyzeCostsContext(context.Background(), src)
	if err != nil {
		tb.Fatal(err)
	}
	return costs
}

// tunerClip builds a labelled clip with clear events. Pacing mirrors real
// surveillance: crossings of ~30 frames separated by long idle gaps, so the
// GOP bound can catch exits without dominating the sample share.
func tunerClip(t *testing.T, n int, seed uint64) *synth.Video {
	t.Helper()
	objs := synth.GenerateObjects(160, 120, n, synth.ScheduleParams{
		Classes: []synth.Class{synth.Car},
		Scale:   0.3,
		Speed:   8, SpeedJitter: 2,
		MeanGap: 140, MinGap: 40,
		Seed: seed,
	})
	v, err := synth.New(synth.Spec{
		Name: "tuner", Width: 160, Height: 120, FPS: 10, NumFrames: n,
		NoiseAmp: 2, Objects: objs, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSweepConfigsGrid(t *testing.T) {
	s := Sweep{GOPs: []int{10, 20}, Scenecuts: []float64{40, 100, 200}}
	cfgs := s.Configs()
	if len(cfgs) != 6 {
		t.Fatalf("grid size %d, want 6", len(cfgs))
	}
	if DefaultConfig().GOP != 250 || DefaultConfig().Scenecut != 40 {
		t.Fatal("default config is not the paper's (250, 40)")
	}
	if len(DefaultSweep().Configs()) != 25 {
		t.Fatal("default sweep should be 5x5")
	}
}

func TestReplayMatchesEncoding(t *testing.T) {
	// The central tuner invariant: replaying decisions from one analysis
	// pass gives exactly the placement the real encoder produces.
	v := tunerClip(t, 120, 3)
	costs := analyzeCosts(t, v)
	configs := []Config{
		{GOP: 30, Scenecut: 0},
		{GOP: 40, Scenecut: 100},
		{GOP: 1000, Scenecut: 250},
		{GOP: 10, Scenecut: 40},
	}
	if testing.Short() {
		configs = configs[:2] // the re-encode per config is the slow part
	}
	for _, cfg := range configs {
		replay := ReplayPlacement(costs, cfg, 1)
		encoded, err := PlacementByEncoding(v, cfg, 85, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(replay) != len(encoded) {
			t.Fatalf("%v: replay %d I-frames, encode %d", cfg, len(replay), len(encoded))
		}
		for i := range replay {
			if replay[i] != encoded[i] {
				t.Fatalf("%v: I-frame %d at %d (replay) vs %d (encode)", cfg, i, replay[i], encoded[i])
			}
		}
	}
}

func TestTunedBeatsDefaultF1(t *testing.T) {
	v := tunerClip(t, 1200, 7)
	track := v.Track()
	costs := analyzeCosts(t, v)
	results, best := RunSweep(costs, track, DefaultSweep(), 1)
	if len(results) != 25 {
		t.Fatalf("results %d", len(results))
	}
	def := Evaluate(track, ReplayPlacement(costs, DefaultConfig(), 1), DefaultConfig())
	if best.F1 < def.F1 {
		t.Fatalf("tuned F1 %.4f worse than default %.4f", best.F1, def.F1)
	}
	// The sweep must come back sorted by F1.
	for i := 1; i < len(results); i++ {
		if results[i].F1 > results[i-1].F1 {
			t.Fatal("results not sorted by F1")
		}
	}
	// Sanity on the metric triple.
	if best.Acc < 0 || best.Acc > 1 || best.SS+best.FR != 1 {
		t.Fatalf("metric identity broken: %+v", best)
	}
}

func TestTuneEndToEnd(t *testing.T) {
	v := tunerClip(t, 1500, 11)
	best, err := Tune(context.Background(), v, v.Track(), DefaultSweep())
	if err != nil {
		t.Fatal(err)
	}
	// A tuned config on a clip with real events should achieve decent
	// accuracy with strong filtering.
	if best.Acc < 0.85 {
		t.Fatalf("tuned accuracy %.3f too low (%+v)", best.Acc, best.Config)
	}
	if best.FR < 0.9 {
		t.Fatalf("tuned filtering rate %.3f too low", best.FR)
	}
}

func TestTuneValidation(t *testing.T) {
	v := tunerClip(t, 50, 1)
	if _, err := Tune(context.Background(), v, v.Track()[:10], DefaultSweep()); err == nil {
		t.Fatal("mismatched track accepted")
	}
	if _, err := Tune(context.Background(), v, v.Track(), Sweep{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestReplayRespectsMinGOP(t *testing.T) {
	v := tunerClip(t, 100, 5)
	costs := analyzeCosts(t, v)
	cfg := Config{GOP: 1000, Scenecut: 400} // fires on any motion
	free := ReplayPlacement(costs, cfg, 1)
	spaced := ReplayPlacement(costs, cfg, 25)
	if len(spaced) >= len(free) && len(free) > 1 {
		t.Fatalf("minGOP did not reduce I-frames: %d vs %d", len(spaced), len(free))
	}
	for i := 1; i < len(spaced); i++ {
		if spaced[i]-spaced[i-1] < 25 {
			t.Fatalf("I-frames %d and %d closer than minGOP", spaced[i-1], spaced[i])
		}
	}
}

func TestLookupTableRoundTrip(t *testing.T) {
	tab := NewLookupTable()
	tab.Set("jackson", Config{GOP: 500, Scenecut: 100})
	tab.Set("coral", Config{GOP: 100, Scenecut: 200})

	path := filepath.Join(t.TempDir(), "lookup.json")
	if err := tab.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLookupTable(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, ok := loaded.Get("jackson")
	if !ok || cfg.GOP != 500 || cfg.Scenecut != 100 {
		t.Fatalf("jackson config = %+v, %v", cfg, ok)
	}
	// Unknown camera falls back to defaults.
	cfg, ok = loaded.Get("nowhere")
	if ok || cfg != DefaultConfig() {
		t.Fatalf("fallback = %+v, %v", cfg, ok)
	}
}

func TestLoadLookupTableErrors(t *testing.T) {
	if _, err := LoadLookupTable(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(path, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLookupTable(path); err == nil {
		t.Fatal("bad json accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// EvaluateExactlyAtEventStarts is a whitebox check of the accuracy model:
// sampling exactly the event starts must give accuracy 1.
func TestEvaluateAtEventStarts(t *testing.T) {
	v := tunerClip(t, 200, 13)
	track := v.Track()
	var starts []int
	for _, ev := range v.Events() {
		starts = append(starts, ev.Start)
	}
	r := Evaluate(track, starts, Config{})
	if r.Acc != 1 {
		t.Fatalf("accuracy at event starts = %v", r.Acc)
	}
}

func TestAnalyzeCostsLength(t *testing.T) {
	v := tunerClip(t, 37, 17)
	costs := analyzeCosts(t, v)
	if len(costs) != 37 {
		t.Fatalf("costs length %d", len(costs))
	}
	if costs[0].Inter != costs[0].Intra {
		t.Fatal("frame 0 inter cost should equal intra (no reference)")
	}
}

func BenchmarkReplaySweep25(b *testing.B) {
	v, err := synth.New(synth.Spec{
		Name: "bench", Width: 160, Height: 120, FPS: 10, NumFrames: 300,
		NoiseAmp: 2,
		Objects: []synth.Object{
			{Class: synth.Car, Enter: 50, Exit: 120, Lane: 0.6, Speed: 4,
				Scale: 0.3, Color: frame.RGB{R: 200, G: 40, B: 40}, Seed: 1},
		},
		Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	costs := analyzeCosts(b, v)
	track := v.Track()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunSweep(costs, track, DefaultSweep(), 1)
	}
}
