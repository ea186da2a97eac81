package nn

import (
	"fmt"
	"testing"

	"sieve/internal/frame"
)

// noiseFrame renders a deterministic pseudo-random frame (full-range noise
// in all three planes) — enough signal to light up arbitrary grid cells.
func noiseFrame(w, h int, seed uint64) *frame.YUV {
	f := frame.NewYUV(w, h)
	rng := trainRNG(seed)
	for _, p := range []*frame.Plane{f.Y, f.Cb, f.Cr} {
		for i := range p.Pix {
			p.Pix[i] = byte(rng.next())
		}
	}
	return f
}

// randomHeadDetector builds a detector whose head is deterministically
// randomised (not trained — tests here need varied probabilities, not
// accuracy) with a threshold low enough that detections actually fire.
func randomHeadDetector(classes []string, inputSize int, seed uint64) *YOLite {
	d := NewYOLite(classes, inputSize)
	_, h2 := d.headConvs()
	initHeadWeights(h2, seed)
	rng := trainRNG(seed ^ 0x5A5A)
	for o := range h2.B {
		h2.B[o] = float32(int64(rng.next()%9)-4) / 4
	}
	d.CellThresh = 0.3
	return d
}

// TestForwardBatchMatchesForward: an item's result does not depend on the
// batch it rides in — item i of a batch of n is bit-equal to a batch of one
// holding that item, and a scratch reused across batch sizes stays exact.
func TestForwardBatchMatchesForward(t *testing.T) {
	d := randomHeadDetector([]string{"car", "bus"}, 48, 31)
	const n = 5
	in := NewBatch(n, 3, 48, 48)
	for i := 0; i < n; i++ {
		fromYUVInto(in.Item(i), noiseFrame(96, 64, uint64(100+i)), 48)
	}
	// single runs item i of in as a batch of one, in a scratch of its own.
	single := func(i int) []float32 {
		one := NewBatch(1, 3, 48, 48)
		copy(one.Data, in.Item(i))
		var s BatchScratch
		return d.net.ForwardBatch(one, &s).Data
	}
	var scratch BatchScratch
	out := d.net.ForwardBatch(in, &scratch)
	for i := 0; i < n; i++ {
		want, got := single(i), out.Item(i)
		if len(got) != len(want) {
			t.Fatalf("item %d: length %d != %d", i, len(got), len(want))
		}
		if j := firstBitDiff(got, want); j >= 0 {
			t.Fatalf("item %d element %d: in a batch of %d %v, alone %v", i, j, n, got[j], want[j])
		}
	}
	// Scratch reuse across calls with a different batch size must stay exact.
	in2 := NewBatch(2, 3, 48, 48)
	copy(in2.Item(0), in.Item(3))
	copy(in2.Item(1), in.Item(1))
	out2 := d.net.ForwardBatch(in2, &scratch)
	for k, i := range []int{3, 1} {
		if j := firstBitDiff(out2.Item(k), single(i)); j >= 0 {
			t.Fatalf("reused scratch diverged on item %d at element %d", k, j)
		}
	}
}

// TestDetectTieBreak pins the grid-scan tie rule: among equally probable
// classes the lowest class index wins (strict > keeps the first maximum),
// so per-frame and batched scans can never disagree on ties.
func TestDetectTieBreak(t *testing.T) {
	classes := []string{"background", "car", "bus", "truck"}
	mk := func(cells ...[4]float32) []float32 {
		// 1×len grid, channel-major.
		probs := make([]float32, 4*len(cells))
		for x, cell := range cells {
			for c := 0; c < 4; c++ {
				probs[c*len(cells)+x] = cell[c]
			}
		}
		return probs
	}
	cases := []struct {
		name   string
		probs  []float32
		w      int
		thresh float32
		want   []Detection
	}{
		{
			name:   "two-way class tie picks lowest index",
			probs:  mk([4]float32{0.1, 0.45, 0.45, 0.0}),
			w:      1,
			thresh: 0.4,
			want:   []Detection{{Class: "car", Prob: 0.45, CellX: 0, CellY: 0}},
		},
		{
			name:   "three-way tie still lowest",
			probs:  mk([4]float32{0.1, 0.3, 0.3, 0.3}),
			w:      1,
			thresh: 0.3,
			want:   []Detection{{Class: "car", Prob: 0.3, CellX: 0, CellY: 0}},
		},
		{
			name:   "background ties object: background wins, no detection",
			probs:  mk([4]float32{0.5, 0.5, 0.0, 0.0}),
			w:      1,
			thresh: 0.3,
			want:   nil,
		},
		{
			name:   "strictly larger later class beats earlier",
			probs:  mk([4]float32{0.1, 0.4, 0.5, 0.0}),
			w:      1,
			thresh: 0.3,
			want:   []Detection{{Class: "bus", Prob: 0.5, CellX: 0, CellY: 0}},
		},
		{
			name:   "at-threshold included, below excluded",
			probs:  mk([4]float32{0.1, 0.5, 0, 0}, [4]float32{0.9, 0.05, 0.05, 0}),
			w:      2,
			thresh: 0.5,
			want:   []Detection{{Class: "car", Prob: 0.5, CellX: 0, CellY: 0}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := appendDetections(tc.probs, 4, 1, tc.w, classes, tc.thresh, nil)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d detections %v, want %d", len(got), got, len(tc.want))
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("detection %d = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestDetectBatchEquivalenceFuzz sweeps seeds × input sizes (and therefore
// grid sizes) comparing the batched path against per-frame Detect and
// FrameLabels element for element — the core pin behind "batching changes
// where compute happens, never what is computed".
func TestDetectBatchEquivalenceFuzz(t *testing.T) {
	for _, size := range []int{32, 48, 96} {
		for _, seed := range []uint64{1, 2, 3, 4} {
			d := randomHeadDetector([]string{"car", "bus", "person"}, size, seed)
			frames := make([]*frame.YUV, 6)
			for i := range frames {
				frames[i] = noiseFrame(160, 120, seed*1000+uint64(i))
			}
			ic := NewInference(d)
			var dets [][]Detection
			dets = ic.DetectBatch(frames, dets)
			labelSets := ic.FrameLabelsBatch(frames, nil)
			total := 0
			for i, f := range frames {
				want := d.Detect(f)
				got := dets[i]
				if len(got) != len(want) {
					t.Fatalf("size %d seed %d frame %d: %d detections != %d",
						size, seed, i, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("size %d seed %d frame %d det %d: %+v != %+v",
							size, seed, i, j, got[j], want[j])
					}
				}
				total += len(want)
				if !labelSets[i].Equal(d.FrameLabels(f)) {
					t.Fatalf("size %d seed %d frame %d: labels %v != %v",
						size, seed, i, labelSets[i], d.FrameLabels(f))
				}
			}
			if size == 32 && seed == 1 && total == 0 {
				t.Fatal("fuzz produced zero detections everywhere — threshold too high to test anything")
			}
		}
	}
}

// TestDetectBatchSteadyStateZeroAlloc is the enforceable form of "the
// batched forward path got cheap and stays that way" (same rationale as
// the codec hot-path alloc suite: on a 1-core box allocs/op is the exact,
// deterministic regression signal).
func TestDetectBatchSteadyStateZeroAlloc(t *testing.T) {
	d := randomHeadDetector([]string{"car", "bus"}, 32, 9)
	frames := make([]*frame.YUV, 4)
	for i := range frames {
		frames[i] = noiseFrame(64, 48, uint64(40+i))
	}
	ic := NewInference(d)
	var dets [][]Detection
	// Warm-up: input batch, activation ping-pong and detection slices reach
	// steady-state capacity.
	for i := 0; i < 3; i++ {
		dets = ic.DetectBatch(frames, dets)
	}
	allocs := testing.AllocsPerRun(20, func() {
		dets = ic.DetectBatch(frames, dets)
	})
	if allocs != 0 {
		t.Fatalf("steady-state DetectBatch: %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkInferBatch measures the shared-plane amortisation: ns/frame of
// the batched detect path at batch 1/4/16 (one forward pass per batch, all
// buffers reused) against per-frame Detect ("perframe": a batch of one
// through a fresh Inference context, so every call allocates its buffers).
// allocs/op must read 0 for the batchN variants.
func BenchmarkInferBatch(b *testing.B) {
	d := randomHeadDetector([]string{"car", "bus", "truck"}, 96, 11)
	frames := make([]*frame.YUV, 16)
	for i := range frames {
		frames[i] = noiseFrame(320, 240, uint64(60+i))
	}
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch%d", k), func(b *testing.B) {
			ic := NewInference(d)
			var dets [][]Detection
			dets = ic.DetectBatch(frames[:k], dets) // reach steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dets = ic.DetectBatch(frames[:k], dets)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/frame")
		})
	}
	b.Run("perframe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Detect(frames[i%len(frames)])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
	})
}
