package codec

import (
	"testing"

	"sieve/internal/frame"
	"sieve/internal/synth"
)

// Hot-path micro-benchmarks, run by `make bench-codec` (and as a 1-iteration
// CI smoke step, so they can never silently stop compiling). All report
// allocs, which must read 0; ns/op says which kernel moved, and a wall-clock
// claim is made with bench/ on alternated parent/change pairs.

func BenchmarkEncodeP(b *testing.B) {
	p := Params{Width: 160, Height: 120, GOPSize: 1 << 20, Scenecut: 0}
	frames := testVideo(160, 120, 3, 1, 31)
	enc, err := NewEncoder(p)
	if err != nil {
		b.Fatal(err)
	}
	var ef EncodedFrame
	for _, f := range frames {
		if err := enc.EncodeInto(f, &ef); err != nil {
			b.Fatal(err)
		}
	}
	f := frames[len(frames)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.EncodeInto(f, &ef); err != nil {
			b.Fatal(err)
		}
	}
}

// quietClip returns the 600×400 Jackson Square scene bench/'s edge_quiet
// workload encodes (sensor noise 2 on every pixel, foliage clutter, a
// vehicle every few seconds), ten seconds at 5 fps, as a function of the
// frame index that walks the clip forwards then backwards, so no frame
// follows a cut.
func quietClip(b *testing.B) func(int) *frame.YUV {
	v, err := synth.Preset(synth.JacksonSquare, synth.PresetOpts{Seconds: 10, FPS: 5})
	if err != nil {
		b.Fatal(err)
	}
	clip := make([]*frame.YUV, v.NumFrames())
	for i := range clip {
		clip[i] = v.Frame(i)
	}
	return func(pos int) *frame.YUV {
		n := len(clip)
		pos %= 2*n - 2
		if pos >= n {
			pos = 2*n - 2 - pos
		}
		return clip[pos]
	}
}

// BenchmarkEncodeQuiet encodes what bench/'s edge_quiet workload encodes:
// the quiet scene at Quality 85, GOP 25, scenecut off. One op is one frame,
// I-frames included at their 1-in-25 share.
func BenchmarkEncodeQuiet(b *testing.B) {
	frameAt := quietClip(b)
	enc, err := NewEncoder(Params{Width: 600, Height: 400, GOPSize: 25, Scenecut: 0})
	if err != nil {
		b.Fatal(err)
	}
	var ef EncodedFrame
	const warm = 26 // one full GOP: writer, analyzer and ef.Data reach capacity
	for i := 0; i < warm; i++ {
		if err := enc.EncodeInto(frameAt(i), &ef); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.EncodeInto(frameAt(warm+i), &ef); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeInto(b *testing.B) {
	p := Params{Width: 160, Height: 120, GOPSize: 1 << 20, Scenecut: 0}
	frames := testVideo(160, 120, 3, 1, 32)
	enc, err := NewEncoder(p)
	if err != nil {
		b.Fatal(err)
	}
	var encoded []*EncodedFrame
	for _, f := range frames {
		ef, err := enc.Encode(f)
		if err != nil {
			b.Fatal(err)
		}
		encoded = append(encoded, ef)
	}
	dec, err := NewDecoder(p)
	if err != nil {
		b.Fatal(err)
	}
	out := frame.NewYUV(160, 120)
	for _, ef := range encoded {
		if err := dec.DecodeInto(ef.Data, out); err != nil {
			b.Fatal(err)
		}
	}
	data := encoded[len(encoded)-1].Data
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.DecodeInto(data, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze runs the cost analysis the encoder runs on every frame
// (downsample, intra cost, half-res motion search) over the quiet scene at
// 600×400, walking the clip as BenchmarkEncodeQuiet does. One op is one
// frame.
func BenchmarkAnalyze(b *testing.B) {
	frameAt := quietClip(b)
	an := NewCostAnalyzer()
	const warm = 2
	for i := 0; i < warm; i++ {
		an.Analyze(frameAt(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.Analyze(frameAt(warm + i))
	}
}

func BenchmarkSADBounded(b *testing.B) {
	frames := testVideo(160, 120, 2, 0, 34)
	cur, ref := frames[1].Y, frames[0].Y
	// A tight bound exercises the early exit; the unbounded baseline is
	// frame.SAD on the same block.
	bound := frame.SAD(cur, 48, 48, ref, 48, 48, 16, 16)
	b.Run("bounded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame.SADBounded(cur, 48, 48, ref, 52, 50, 16, 16, bound)
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame.SAD(cur, 48, 48, ref, 52, 50, 16, 16)
		}
	})
}

// BenchmarkMotionSearchEdge times one exhaustive search (fullSearch, 33²
// candidates at range 16) where the clamp used to be paid: a macroblock of
// the 600×400 frame's last half-macroblock column (x = 592, eight of its
// sixteen columns past the edge) and the bottom-right corner one, on noisy
// content. /padded is what the encoder runs — the current block loaded
// once, every candidate one SADRows on the padded reference — and /clamped
// the plane-based oracle over frame.SADBounded, whose candidates there take
// the clamped Go rows. Both cost the same candidates with the same bounds.
func BenchmarkMotionSearchEdge(b *testing.B) {
	frames := noisyVideo(600, 400, 2, 0, 35)
	cur, ref := frames[1].Y, frames[0].Y
	refPad := padPlane(ref, mbSize, 16)
	scratch := make([]byte, mbSize*mbSize)
	for _, pos := range []struct {
		name   string
		bx, by int
	}{{"column", 592, 192}, {"corner", 592, 384}} {
		b.Run(pos.name+"/padded", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				blk := searchBlock{ref: refPad, x: pos.bx, y: pos.by, size: mbSize}
				blk.cur, blk.stride = loadBlock(cur, pos.bx, pos.by, mbSize, scratch)
				fullSearch(&blk, 16)
			}
		})
		b.Run(pos.name+"/clamped", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				refFullSearch(cur, ref, pos.bx, pos.by, mbSize, 16)
			}
		})
	}
}

// BenchmarkIFrameDecode decodes what bench/'s archive_scan decodes: the
// I-frames of its rush-hour scene (320×240, sensor noise 2, one swaying
// clutter patch, cars, buses and trucks in three lanes; seed 1), encoded at
// Quality 85, GOP 4, scenecut off, through one reused IFrameDecoder. One op
// is one I-frame, taken in turn from the clip's 25.
func BenchmarkIFrameDecode(b *testing.B) {
	const w, h, n, seed = 320, 240, 100, 1
	spec := synth.Spec{
		Name: "rush_hour", Width: w, Height: h, FPS: 10, NumFrames: n,
		NoiseAmp: 2,
		Clutter:  []synth.ClutterPatch{{X: 0.05, Y: 0.05, W: 0.25, H: 0.30, Amp: 2, Period: 20, Phase: 1.3}},
		Seed:     404 + seed*7919,
	}
	spec.Objects = synth.GenerateObjects(w, h, n, synth.ScheduleParams{
		Classes: []synth.Class{synth.Car, synth.Car, synth.Bus, synth.Truck},
		Scale:   0.28, ScaleJitter: 0.06,
		Speed: 14, SpeedJitter: 4,
		MeanGap: 12, MinGap: 3,
		Lanes: []float64{0.55, 0.70, 0.84},
		Seed:  4004,
	})
	for i := range spec.Objects {
		spec.Objects[i].Seed += seed * 104729
	}
	v, err := synth.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	p := Params{Width: w, Height: h, Quality: 85, GOPSize: 4, Scenecut: 0}
	enc, err := NewEncoder(p)
	if err != nil {
		b.Fatal(err)
	}
	var iframes [][]byte
	for i := 0; i < n; i++ {
		ef, err := enc.Encode(v.Frame(i))
		if err != nil {
			b.Fatal(err)
		}
		if ef.Type == FrameI {
			iframes = append(iframes, ef.Data)
		}
	}
	dec, err := NewIFrameDecoder(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, data := range iframes {
		if _, err := dec.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(iframes[i%len(iframes)]); err != nil {
			b.Fatal(err)
		}
	}
}
