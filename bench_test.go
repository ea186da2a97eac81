// Ablation benchmarks of the design choices DESIGN.md calls out. The
// paper's tables and figures are `sievebench -exp` (asserted by the
// internal/experiments tests); end-to-end performance is `bench/`.
package sieve

import (
	"context"
	"testing"

	"sieve/internal/codec"
	"sieve/internal/container"
	"sieve/internal/frame"
	"sieve/internal/pipeline"
	"sieve/internal/synth"
	"sieve/internal/tuner"
)

// benchClip renders a deterministic clip for the ablations.
func benchClip(b *testing.B, n int) *synth.Video {
	b.Helper()
	objs := synth.GenerateObjects(160, 120, n, synth.ScheduleParams{
		Classes: []synth.Class{synth.Car},
		Scale:   0.3, Speed: 8, SpeedJitter: 2,
		MeanGap: 140, MinGap: 40, Seed: 11,
	})
	v, err := synth.New(synth.Spec{
		Name: "bench", Width: 160, Height: 120, FPS: 10, NumFrames: n,
		NoiseAmp: 2, Objects: objs, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkAblationTunerReplay compares the cost-replay sweep (one analysis
// pass, 25 cheap replays) against the paper's literal re-encode-per-config
// sweep. Both select the same configuration; replay is ~k*l times cheaper.
func BenchmarkAblationTunerReplay(b *testing.B) {
	v := benchClip(b, 300)
	track := v.Track()
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			costs := tuner.AnalyzeCosts(v)
			_, best := tuner.RunSweep(costs, track, tuner.DefaultSweep(), tuner.DefaultMinGOP)
			_ = best
		}
	})
	b.Run("full-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bestF1 := -1.0
			for _, cfg := range tuner.DefaultSweep().Configs() {
				samples, err := tuner.PlacementByEncoding(v, cfg, 85, tuner.DefaultMinGOP)
				if err != nil {
					b.Fatal(err)
				}
				if r := tuner.Evaluate(track, samples, cfg); r.F1 > bestF1 {
					bestF1 = r.F1
				}
			}
		}
	})
}

// BenchmarkAblationSeekVsDecode isolates the paper's core claim: skipping
// P-frames via stream metadata versus decoding every frame.
func BenchmarkAblationSeekVsDecode(b *testing.B) {
	a, err := pipeline.PrepareAsset(context.Background(), synth.JacksonSquare,
		pipeline.AssetOpts{Seconds: 20, FPS: 5, TrainSeconds: 40})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("seek", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			a.Semantic.ScanMeta(func(m container.FrameMeta) bool {
				if m.Type == codec.FrameI {
					n++
				}
				return true
			})
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		info := a.Default.Info()
		img := frame.NewYUV(info.Width, info.Height)
		for i := 0; i < b.N; i++ {
			dec, err := codec.NewDecoder(info.CodecParams())
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < a.NumFrames; j++ {
				payload, err := a.Default.Payload(j)
				if err != nil {
					b.Fatal(err)
				}
				if err := dec.DecodeInto(payload, img); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationMotionSearch compares diamond search (default) against
// exhaustive full search in the encoder.
func BenchmarkAblationMotionSearch(b *testing.B) {
	v := benchClip(b, 8)
	frames := make([]*frame.YUV, v.NumFrames())
	for i := range frames {
		frames[i] = v.Frame(i)
	}
	for _, method := range []struct {
		name   string
		search codec.MotionSearch
	}{{"diamond", codec.SearchDiamond}, {"full", codec.SearchFull}} {
		b.Run(method.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc, err := codec.NewEncoder(codec.Params{
					Width: 160, Height: 120, GOPSize: 1000, Scenecut: 0,
					Search: method.search,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range frames {
					if _, err := enc.Encode(f); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationScenecutCost compares the analyzer's motion-compensated
// inter cost against a naive no-motion-search frame difference, on a feed
// with waving-clutter background. MC absorbs the clutter; raw differencing
// cannot (the structural reason MSE loses Figure 3 on Jackson).
func BenchmarkAblationScenecutCost(b *testing.B) {
	v, err := synth.Preset(synth.JacksonSquare, synth.PresetOpts{Seconds: 10, FPS: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("motion-compensated", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			an := codec.NewCostAnalyzer()
			var quietMax int64
			for j := 0; j < v.NumFrames(); j++ {
				c := an.Analyze(v.Frame(j))
				if j > 0 && c.Inter > quietMax {
					quietMax = c.Inter
				}
			}
			b.ReportMetric(float64(quietMax), "max_quiet_inter_cost")
		}
	})
	b.Run("raw-difference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var prev *frame.YUV
			var quietMax int64
			for j := 0; j < v.NumFrames(); j++ {
				f := v.Frame(j)
				if prev != nil {
					var sum int64
					for k := range f.Y.Pix {
						d := int64(f.Y.Pix[k]) - int64(prev.Y.Pix[k])
						if d < 0 {
							d = -d
						}
						sum += d
					}
					if sum > quietMax {
						quietMax = sum
					}
				}
				prev = f
			}
			b.ReportMetric(float64(quietMax), "max_quiet_diff_cost")
		}
	})
}
