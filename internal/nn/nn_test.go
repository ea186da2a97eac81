package nn

import (
	"math"
	"testing"
	"time"

	"sieve/internal/frame"
	"sieve/internal/synth"
)

// forwardLayer runs l over every item of in through ForwardBatch into a
// fresh batch of l's output shape.
func forwardLayer(l Layer, in *Batch) *Batch {
	s := l.OutShape(Shape{C: in.C, H: in.H, W: in.W})
	out := NewBatch(in.N, s.C, s.H, s.W)
	l.ForwardBatch(in, out)
	return out
}

// at returns element (c, y, x) of item 0 of b.
func at(b *Batch, c, y, x int) float32 {
	return b.Data[(c*b.H+y)*b.W+x]
}

func TestConv2DKnownValues(t *testing.T) {
	// 1-channel 3x3 identity kernel centred: output == input (pad 1, stride 1).
	c := NewConv2D("id", 1, 1, 3, 1, 1)
	c.W[0][0][4] = 1 // centre tap
	in := NewBatch(1, 1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	out := forwardLayer(c, in)
	if out.C != 1 || out.H != 4 || out.W != 4 {
		t.Fatalf("shape %dx%dx%d", out.C, out.H, out.W)
	}
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("identity conv changed data at %d: %v vs %v", i, out.Data[i], in.Data[i])
		}
	}
}

func TestConv2DStrideAndBias(t *testing.T) {
	c := NewConv2D("sum", 1, 1, 3, 2, 1)
	for i := range c.W[0][0] {
		c.W[0][0][i] = 1
	}
	c.B[0] = 10
	in := NewBatch(1, 1, 4, 4)
	for i := range in.Data {
		in.Data[i] = 1
	}
	out := forwardLayer(c, in)
	if out.H != 2 || out.W != 2 {
		t.Fatalf("stride-2 output %dx%d, want 2x2", out.H, out.W)
	}
	// Top-left window at (-1,-1): 2x2 valid pixels = 4 + bias.
	if at(out, 0, 0, 0) != 14 {
		t.Fatalf("corner = %v, want 14", at(out, 0, 0, 0))
	}
	// Interior window at (1,1): full 3x3 = 9 + bias... (position (1,1) maps
	// to input (1,1) so all taps inside for a 4x4 input).
	if at(out, 0, 1, 1) != 19 {
		t.Fatalf("interior = %v, want 19", at(out, 0, 1, 1))
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{Tag: "r"}
	in := NewBatch(1, 1, 1, 4)
	copy(in.Data, []float32{-2, -0.5, 0, 3})
	out := forwardLayer(r, in)
	want := []float32{0, 0, 0, 3}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("relu[%d] = %v", i, out.Data[i])
		}
	}
}

// TestReLUMatchesReference holds reluInto to `if v > 0 { v } else { 0 }`
// bit for bit on the boundary patterns: ±0, the smallest subnormal and
// largest finite of each sign, ±Inf and NaNs of either sign.
func TestReLUMatchesReference(t *testing.T) {
	bits := []uint32{0, 0x80000000, 1, 0x80000001, 0x7f7fffff, 0xff7fffff,
		0x7f800000, 0xff800000, 0x7f800001, 0x7fc00000, 0xffc00000, 0x3f800000, 0xbf800000}
	in := make([]float32, len(bits))
	for i, b := range bits {
		in[i] = math.Float32frombits(b)
	}
	out := make([]float32, len(in))
	reluInto(in, out)
	for i, v := range in {
		want := float32(0)
		if v > 0 {
			want = v
		}
		if math.Float32bits(out[i]) != math.Float32bits(want) {
			t.Fatalf("relu(%#08x) = %#08x, want %#08x", bits[i], math.Float32bits(out[i]), math.Float32bits(want))
		}
	}
}

func TestMaxPool2(t *testing.T) {
	m := &MaxPool2{Tag: "p"}
	in := NewBatch(1, 1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	out := forwardLayer(m, in)
	if out.H != 2 || out.W != 2 {
		t.Fatalf("pool shape %dx%d", out.H, out.W)
	}
	if at(out, 0, 0, 0) != 5 || at(out, 0, 1, 1) != 15 {
		t.Fatalf("pool values %v %v", at(out, 0, 0, 0), at(out, 0, 1, 1))
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	s := &Softmax{Tag: "s"}
	in := NewBatch(1, 4, 2, 2)
	for i := range in.Data {
		in.Data[i] = float32(i%7) - 3
	}
	out := forwardLayer(s, in)
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			var sum float64
			for c := 0; c < 4; c++ {
				v := at(out, c, y, x)
				if v < 0 || v > 1 {
					t.Fatalf("prob out of range: %v", v)
				}
				sum += float64(v)
			}
			if math.Abs(sum-1) > 1e-5 {
				t.Fatalf("cell (%d,%d) sums to %v", x, y, sum)
			}
		}
	}
}

func TestForwardRangeComposition(t *testing.T) {
	d := NewYOLite([]string{"car"}, 96)
	f := frame.NewYUV(128, 96)
	f.Fill(100, 120, 130)
	in := NewBatch(1, 3, 96, 96)
	fromYUVInto(in.Data, f, 96)
	net := d.Network()
	// The second half reads the first half's output, so the halves work in
	// separate scratches (a range's input must not alias its scratch).
	var s1, s2, sFull BatchScratch
	half1 := net.ForwardBatchRange(in, &s1, 0, 4)
	half2 := net.ForwardBatchRange(half1, &s2, 4, len(net.Layers))
	full := net.ForwardBatch(in, &sFull)
	if len(full.Data) != len(half2.Data) {
		t.Fatalf("length mismatch %d vs %d", len(full.Data), len(half2.Data))
	}
	for i := range full.Data {
		if full.Data[i] != half2.Data[i] {
			t.Fatalf("split forward differs at %d", i)
		}
	}
}

func TestFromYUVRange(t *testing.T) {
	f := frame.NewYUV(64, 48)
	f.Fill(255, 0, 255)
	in := NewBatch(1, 3, 32, 32)
	fromYUVInto(in.Data, f, 32)
	for _, v := range in.Data {
		if v < 0 || v > 1 {
			t.Fatalf("value %v out of [0,1]", v)
		}
	}
	if at(in, 0, 5, 5) != 1 {
		t.Fatalf("luma = %v, want 1", at(in, 0, 5, 5))
	}
}

func TestNetworkStatsConsistency(t *testing.T) {
	d := NewYOLite([]string{"car", "bus"}, 160)
	stats := d.Network().Stats()
	if len(stats) != len(d.Network().Layers) {
		t.Fatal("stats length mismatch")
	}
	// Shapes must chain.
	for i := 1; i < len(stats); i++ {
		if stats[i].In != stats[i-1].Out {
			t.Fatalf("layer %d input %v != previous output %v", i, stats[i].In, stats[i-1].Out)
		}
	}
	// Head output channels = classes + background.
	last := stats[len(stats)-1]
	if last.Out.C != 3 {
		t.Fatalf("final channels %d, want 3", last.Out.C)
	}
	if d.Network().TotalFLOPs() <= 0 {
		t.Fatal("zero FLOPs")
	}
	if d.GridSize() != last.Out.H {
		t.Fatalf("grid %d != %d", d.GridSize(), last.Out.H)
	}
}

func TestPartitionExtremes(t *testing.T) {
	d := NewYOLite([]string{"car"}, 160)
	net := d.Network()
	// Infinitely fast cloud + fat pipe → everything in the cloud (cut -1).
	p := Partition(net, Env{
		EdgeFLOPS: 1e9, CloudFLOPS: 1e15, BandwidthBps: 1e12, InputBytes: 1000,
	})
	if p.SplitAfter != -1 {
		t.Fatalf("fast cloud: split %d, want -1", p.SplitAfter)
	}
	// No bandwidth at all (tiny) + equal speeds → run everything on edge
	// (last cut ships the smallest tensor: the grid probabilities).
	p = Partition(net, Env{
		EdgeFLOPS: 1e9, CloudFLOPS: 1e9, BandwidthBps: 1e3, InputBytes: 1 << 20,
	})
	// The minimal-transfer cuts are the last layers (head logits and the
	// same-shaped softmax output); any of them is optimal here.
	if stats := net.Stats(); p.TransferBytes != stats[len(stats)-1].OutBytes {
		t.Fatalf("no bandwidth: split %d ships %d bytes, want the minimal tensor",
			p.SplitAfter, p.TransferBytes)
	}
}

func TestPartitionLatencyModel(t *testing.T) {
	d := NewYOLite([]string{"car"}, 160)
	net := d.Network()
	env := Env{EdgeFLOPS: 5e8, CloudFLOPS: 5e9, BandwidthBps: 30e6, InputBytes: 80_000}
	best := Partition(net, env)
	// Optimal must beat or match both extremes.
	allCloud := evalCut(net.Stats(), -1, env)
	allEdge := evalCut(net.Stats(), len(net.Layers)-1, env)
	if best.Latency > allCloud.Latency || best.Latency > allEdge.Latency {
		t.Fatalf("partition %d (%v) worse than extremes (%v / %v)",
			best.SplitAfter, best.Latency, allCloud.Latency, allEdge.Latency)
	}
	if best.Latency <= 0 {
		t.Fatal("zero latency")
	}
	// Latency must decompose.
	if best.Latency != best.EdgeTime+best.TransferTime+best.CloudTime {
		t.Fatal("latency does not decompose")
	}
	_ = time.Duration(0)
}

// trainTestVideos builds a small labelled scene for detector training.
func trainTestVideos(t *testing.T, seed uint64) *synth.Video {
	t.Helper()
	objs := synth.GenerateObjects(320, 240, 400, synth.ScheduleParams{
		Classes: []synth.Class{synth.Car, synth.Person},
		Scale:   0.28, ScaleJitter: 0.04,
		Speed: 6, SpeedJitter: 1,
		MeanGap: 25, MinGap: 10,
		Lanes: []float64{0.65},
		Seed:  seed,
	})
	v, err := synth.New(synth.Spec{
		Name: "train", Width: 320, Height: 240, FPS: 10, NumFrames: 400,
		NoiseAmp: 2, Objects: objs, Seed: seed * 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func collectLabeled(v *synth.Video, every int) []LabeledFrame {
	var out []LabeledFrame
	for i := 0; i < v.NumFrames(); i += every {
		boxes := v.Boxes(i)
		lf := LabeledFrame{Frame: v.Frame(i)}
		for _, b := range boxes {
			lf.Boxes = append(lf.Boxes, ObjectBox{
				Class: string(b.Class), X: b.X, Y: b.Y, W: b.W, H: b.H,
			})
		}
		out = append(out, lf)
	}
	return out
}

func TestYOLiteTrainAndDetect(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short")
	}
	var lab []LabeledFrame
	for _, s := range []uint64{11, 12, 13} {
		lab = append(lab, collectLabeled(trainTestVideos(t, s), 7)...)
	}
	test := trainTestVideos(t, 23)

	d := NewYOLite([]string{"car", "person"}, 300)
	report, err := d.Train(lab, TrainConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if report.CellAccuracy < 0.95 {
		t.Fatalf("cell accuracy %.3f < 0.95 (loss %.3f, %d cells, %d positives)",
			report.CellAccuracy, report.FinalLoss, report.Cells, report.Positives)
	}

	// On held-out video: presence/absence must be near-perfect (it drives
	// every pipeline decision); exact class labels are allowed the modest
	// error rate a small reference model realistically has on small or
	// partially visible objects.
	presenceOK, labelOK, total := 0, 0, 0
	for i := 0; i < test.NumFrames(); i += 11 {
		got := d.FrameLabels(test.Frame(i))
		want := test.Labels(i)
		total++
		if got.Empty() == want.Empty() {
			presenceOK++
		}
		if got.Equal(want) {
			labelOK++
		}
	}
	if p := float64(presenceOK) / float64(total); p < 0.9 {
		t.Fatalf("presence accuracy %.3f < 0.9", p)
	}
	if a := float64(labelOK) / float64(total); a < 0.6 {
		t.Fatalf("label accuracy %.3f < 0.6 (%d/%d)", a, labelOK, total)
	}
}

func TestTrainRejectsDegenerateInput(t *testing.T) {
	d := NewYOLite([]string{"car"}, 96)
	if _, err := d.Train(nil, TrainConfig{}); err == nil {
		t.Fatal("empty training set accepted")
	}
	// Frames with no objects at all → no positive cells.
	f := frame.NewYUV(96, 96)
	if _, err := d.Train([]LabeledFrame{{Frame: f}}, TrainConfig{}); err == nil {
		t.Fatal("object-free training set accepted")
	}
}

func BenchmarkYOLiteForward300(b *testing.B) {
	d := NewYOLite([]string{"car", "bus", "truck", "person", "boat"}, 300)
	f := frame.NewYUV(640, 400)
	f.Fill(120, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.FrameLabels(f)
	}
}

func BenchmarkConvForward(b *testing.B) {
	c := NewConv2D("bench", 16, 32, 3, 2, 1)
	in := NewBatch(1, 16, 75, 75)
	s := c.OutShape(Shape{C: 16, H: 75, W: 75})
	out := NewBatch(1, s.C, s.H, s.W)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ForwardBatch(in, out)
	}
}
