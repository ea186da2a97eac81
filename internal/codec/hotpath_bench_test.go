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

// BenchmarkEncodeQuiet encodes what bench/'s edge_quiet workload encodes:
// the 600×400 Jackson Square scene (sensor noise 2 on every pixel, foliage
// clutter, a vehicle every few seconds) at Quality 85, GOP 25, scenecut off,
// walking the clip forwards then backwards so no frame follows a cut. One op
// is one frame, I-frames included at their 1-in-25 share.
func BenchmarkEncodeQuiet(b *testing.B) {
	v, err := synth.Preset(synth.JacksonSquare, synth.PresetOpts{Seconds: 10, FPS: 5})
	if err != nil {
		b.Fatal(err)
	}
	clip := make([]*frame.YUV, v.NumFrames())
	for i := range clip {
		clip[i] = v.Frame(i)
	}
	enc, err := NewEncoder(Params{Width: 600, Height: 400, GOPSize: 25, Scenecut: 0})
	if err != nil {
		b.Fatal(err)
	}
	var ef EncodedFrame
	frameAt := func(pos int) *frame.YUV {
		n := len(clip)
		pos %= 2*n - 2
		if pos >= n {
			pos = 2*n - 2 - pos
		}
		return clip[pos]
	}
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

func BenchmarkAnalyze(b *testing.B) {
	frames := testVideo(160, 120, 3, 1, 33)
	an := NewCostAnalyzer()
	for _, f := range frames {
		an.Analyze(f)
	}
	f := frames[len(frames)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.Analyze(f)
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
