package vision

import (
	"math"
	"testing"

	"sieve/internal/frame"
	"sieve/internal/synth"
)

func testClip(t *testing.T, n int) *synth.Video {
	t.Helper()
	v, err := synth.New(synth.Spec{
		Name: "clip", Width: 128, Height: 96, FPS: 10, NumFrames: n,
		NoiseAmp: 1,
		Objects: []synth.Object{
			{Class: synth.Car, Enter: n / 3, Exit: 2 * n / 3, Lane: 0.7,
				Speed: 6, Scale: 0.4, Color: frame.RGB{R: 200, G: 50, B: 50}, Seed: 5},
		},
		Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestMSEFirstFrameInf(t *testing.T) {
	d := NewMSE()
	v := testClip(t, 12)
	if s := d.Score(v.Frame(0)); !math.IsInf(s, 1) {
		t.Fatalf("first score = %v, want +Inf", s)
	}
	if s := d.Score(v.Frame(1)); math.IsInf(s, 1) {
		t.Fatalf("second score = %v, want finite", s)
	}
	d.Reset()
	if s := d.Score(v.Frame(2)); !math.IsInf(s, 1) {
		t.Fatal("Reset did not clear history")
	}
}

func TestMSESpikesOnObjectEntry(t *testing.T) {
	v := testClip(t, 30)
	d := NewMSE()
	var scores []float64
	for i := 0; i < 30; i++ {
		scores = append(scores, d.Score(v.Frame(i)))
	}
	entry := 10 // n/3
	// The entry frame's score must dominate the quiet frames before it.
	var quietMax float64
	for i := 1; i < entry; i++ {
		if scores[i] > quietMax {
			quietMax = scores[i]
		}
	}
	if scores[entry] <= quietMax*2 {
		t.Fatalf("entry score %v not well above quiet max %v", scores[entry], quietMax)
	}
}

func TestSIFTDetectsLargeObject(t *testing.T) {
	v := testClip(t, 30)
	d := NewSIFT()
	var scores []float64
	for i := 0; i < 30; i++ {
		scores = append(scores, d.Score(v.Frame(i)))
	}
	entry := 10
	var quietMax float64
	for i := 1; i < entry; i++ {
		if scores[i] > quietMax {
			quietMax = scores[i]
		}
	}
	// SIFT may need a frame or two of the object before keypoints appear;
	// score the entry window, as a thresholded sampler effectively does.
	entryMax := 0.0
	for i := entry; i < entry+3; i++ {
		if scores[i] > entryMax {
			entryMax = scores[i]
		}
	}
	if entryMax <= quietMax {
		t.Fatalf("SIFT entry window max %v not above quiet max %v", entryMax, quietMax)
	}
}

func TestSIFTKeypointsOnTexturedObject(t *testing.T) {
	v := testClip(t, 30)
	// Object fully visible mid-clip.
	kpQuiet, _ := DetectAndDescribe(v.Frame(2).Y)
	kpObj, _ := DetectAndDescribe(v.Frame(15).Y)
	if len(kpObj) <= len(kpQuiet) {
		t.Fatalf("object should add keypoints: quiet=%d obj=%d", len(kpQuiet), len(kpObj))
	}
}

func TestSIFTDescriptorNormalised(t *testing.T) {
	v := testClip(t, 30)
	_, descs := DetectAndDescribe(v.Frame(15).Y)
	if len(descs) == 0 {
		t.Fatal("no descriptors")
	}
	for i, d := range descs {
		var sum float64
		for _, x := range d {
			if x < 0 {
				t.Fatalf("descriptor %d has negative bin", i)
			}
			sum += float64(x) * float64(x)
		}
		if sum > 0 && math.Abs(sum-1) > 1e-3 {
			t.Fatalf("descriptor %d norm² = %v, want 1", i, sum)
		}
	}
}

func TestSIFTSelfMatch(t *testing.T) {
	v := testClip(t, 30)
	_, descs := DetectAndDescribe(v.Frame(15).Y)
	if len(descs) < 4 {
		t.Skip("not enough descriptors")
	}
	// A descriptor set matched against itself matches (nearly) completely —
	// duplicate descriptors can defeat the ratio test, hence "nearly".
	m := MatchDescriptors(descs, descs, 0.8)
	if m < len(descs)*3/4 {
		t.Fatalf("self-match %d of %d", m, len(descs))
	}
}

func TestMatchDescriptorsTinySets(t *testing.T) {
	var a, b Descriptor
	a[0] = 1
	b[0] = 1
	if MatchDescriptors([]Descriptor{a}, nil, 0.8) != 0 {
		t.Fatal("empty b should match nothing")
	}
	if MatchDescriptors([]Descriptor{a}, []Descriptor{b}, 0.8) != 0 {
		t.Fatal("b with one element cannot pass a ratio test")
	}
}

func TestThresholdForShare(t *testing.T) {
	scores := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	th := ThresholdForShare(scores, 0.2) // want ~2 samples
	got := SampleIndices(scores, th)
	if len(got) != 2 {
		t.Fatalf("sampled %d frames, want 2 (threshold %v)", len(got), th)
	}
	if got[0] != 8 || got[1] != 9 {
		t.Fatalf("sampled wrong indices %v", got)
	}
	if !math.IsInf(ThresholdForShare(scores, 0), 1) {
		t.Fatal("share 0 should be +Inf")
	}
	if !math.IsInf(ThresholdForShare(scores, 1), -1) {
		t.Fatal("share 1 should be -Inf")
	}
	if !math.IsInf(ThresholdForShare(nil, 0.5), 1) {
		t.Fatal("empty scores should be +Inf")
	}
}

func TestThresholdForShareWithInf(t *testing.T) {
	// The +Inf first-frame score must survive threshold selection.
	scores := []float64{math.Inf(1), 0.1, 0.2, 5, 0.1, 0.3, 6, 0.2}
	th := ThresholdForShare(scores, 3.0/8)
	got := SampleIndices(scores, th)
	if len(got) != 3 {
		t.Fatalf("sampled %v, want 3 samples", got)
	}
}

func TestUniformIndices(t *testing.T) {
	got := UniformIndices(100, 0.1)
	if len(got) != 10 {
		t.Fatalf("len = %d, want 10", len(got))
	}
	if got[0] != 0 {
		t.Fatal("uniform sampling must include frame 0")
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("indices must be strictly increasing")
		}
		if got[i] >= 100 {
			t.Fatal("index out of range")
		}
	}
	if UniformIndices(0, 0.5) != nil {
		t.Fatal("n=0 should be nil")
	}
	if UniformIndices(10, 0) != nil {
		t.Fatal("share=0 should be nil")
	}
	if len(UniformIndices(10, 2)) != 10 {
		t.Fatal("share>1 clamps to all frames")
	}
}

func TestScoresHelper(t *testing.T) {
	v := testClip(t, 8)
	i := 0
	d := NewMSE()
	scores := Scores(d, func() *frame.YUV {
		if i >= 8 {
			return nil
		}
		f := v.Frame(i)
		i++
		return f
	})
	if len(scores) != 8 {
		t.Fatalf("scores len = %d", len(scores))
	}
	if !math.IsInf(scores[0], 1) {
		t.Fatal("first score must be +Inf")
	}
}

func TestSIFTWeakOnSmallObject(t *testing.T) {
	// A tiny low-texture object yields far fewer new keypoints than a large
	// textured one — the structural reason SIFT loses on small-object feeds.
	mk := func(scale float64) float64 {
		v, err := synth.New(synth.Spec{
			Name: "sized", Width: 256, Height: 192, FPS: 10, NumFrames: 20,
			Objects: []synth.Object{
				{Class: synth.Person, Enter: 10, Exit: 20, Lane: 0.6,
					Speed: 8, Scale: scale, Color: frame.RGB{R: 210, G: 60, B: 60}, Seed: 3},
			},
			Seed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		d := NewSIFT()
		var entryMax float64
		for i := 0; i < 14; i++ {
			s := d.Score(v.Frame(i))
			if i >= 10 && s > entryMax {
				entryMax = s
			}
		}
		return entryMax
	}
	small := mk(0.06)
	large := mk(0.5)
	if small >= large {
		t.Fatalf("small-object SIFT score %v should be below large-object %v", small, large)
	}
}

func BenchmarkMSEScore(b *testing.B) {
	v, err := synth.Preset(synth.JacksonSquare, synth.PresetOpts{Seconds: 2, FPS: 10})
	if err != nil {
		b.Fatal(err)
	}
	f0, f1 := v.Frame(0), v.Frame(1)
	d := NewMSE()
	d.Score(f0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			d.Score(f1)
		} else {
			d.Score(f0)
		}
	}
}

func BenchmarkSIFTScore(b *testing.B) {
	v, err := synth.Preset(synth.JacksonSquare, synth.PresetOpts{Seconds: 2, FPS: 10})
	if err != nil {
		b.Fatal(err)
	}
	f0, f1 := v.Frame(0), v.Frame(1)
	d := NewSIFT()
	d.Score(f0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			d.Score(f1)
		} else {
			d.Score(f0)
		}
	}
}
