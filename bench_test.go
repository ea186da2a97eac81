// Ablation benchmarks of the design choices DESIGN.md calls out. They build
// their streams with this package's own API (Tune, EncodeStream): the paper
// harness, internal/experiments (`sievebench -exp`), imports this package,
// so these tests cannot import it. End-to-end performance is `bench/`.
package sieve

import (
	"context"
	"testing"

	"sieve/internal/codec"
	"sieve/internal/container"
	"sieve/internal/frame"
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
			costs, err := tuner.AnalyzeCostsContext(context.Background(), v)
			if err != nil {
				b.Fatal(err)
			}
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
// P-frames via stream metadata of the tuned stream versus decoding every
// frame of the default one.
func BenchmarkAblationSeekVsDecode(b *testing.B) {
	ctx := context.Background()
	train, err := synth.Preset(synth.JacksonSquare, synth.PresetOpts{Seconds: 40, FPS: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	best, err := Tune(ctx, train, DefaultSweep())
	if err != nil {
		b.Fatal(err)
	}
	v, err := LoadDataset(synth.JacksonSquare, 20, 5)
	if err != nil {
		b.Fatal(err)
	}
	encode := func(p EncoderParams) *container.Reader {
		buf := &container.Buffer{}
		if _, err := EncodeStream(ctx, NewSynthSource(v), buf, WithTunedParams(p)); err != nil {
			b.Fatal(err)
		}
		r, err := OpenStream(buf, buf.Size())
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	spec := v.Spec()
	semantic := encode(TunedParams(spec.Width, spec.Height, best.Config))
	def := encode(DefaultParams(spec.Width, spec.Height))
	b.Run("seek", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			semantic.ScanMeta(func(m container.FrameMeta) bool {
				if m.Type == codec.FrameI {
					n++
				}
				return true
			})
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		info := def.Info()
		img := frame.NewYUV(info.Width, info.Height)
		for i := 0; i < b.N; i++ {
			dec, err := codec.NewDecoder(info.CodecParams())
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < def.NumFrames(); j++ {
				payload, err := def.Payload(j)
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
