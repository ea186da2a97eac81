package codec

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sieve/internal/frame"
)

// testVideo renders n frames of a noisy static background with a bright
// square that enters at frame `enter`, moves right, and leaves the scene.
func testVideo(w, h, n, enter int, seed int64) []*frame.YUV {
	rng := rand.New(rand.NewSource(seed))
	bg := frame.NewYUV(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			bg.Y.Set(x, y, byte(90+(x+y)%40))
		}
	}
	bg.Cb.Fill(120)
	bg.Cr.Fill(130)
	frames := make([]*frame.YUV, 0, n)
	for i := 0; i < n; i++ {
		f := bg.Clone()
		// Sensor noise.
		for k := 0; k < w*h/50; k++ {
			x, y := rng.Intn(w), rng.Intn(h)
			f.Y.Set(x, y, frame.Clamp(int(f.Y.At(x, y))+rng.Intn(5)-2))
		}
		if i >= enter {
			// Moving bright object.
			ox := (i - enter) * 4
			for y := h / 3; y < h/3+h/4; y++ {
				for x := ox; x < ox+w/5 && x < w; x++ {
					f.Y.Set(x, y, 230)
					f.Cb.Set(x/2, y/2, 90)
					f.Cr.Set(x/2, y/2, 170)
				}
			}
		}
		frames = append(frames, f)
	}
	return frames
}

func encodeAll(t *testing.T, p Params, frames []*frame.YUV) []*EncodedFrame {
	t.Helper()
	enc, err := NewEncoder(p)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	out := make([]*EncodedFrame, 0, len(frames))
	for _, f := range frames {
		ef, err := enc.Encode(f)
		if err != nil {
			t.Fatalf("Encode frame %d: %v", len(out), err)
		}
		out = append(out, ef)
	}
	return out
}

func TestRoundTripQuality(t *testing.T) {
	p := Params{Width: 64, Height: 48, Quality: 85, GOPSize: 10, Scenecut: 40}
	frames := testVideo(64, 48, 20, 5, 1)
	encoded := encodeAll(t, p, frames)

	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	for i, ef := range encoded {
		got, err := dec.Decode(ef.Data)
		if err != nil {
			t.Fatalf("Decode frame %d: %v", i, err)
		}
		if psnr := frame.PSNRYUV(frames[i], got); psnr < 30 {
			t.Errorf("frame %d PSNR %.1f dB < 30 dB", i, psnr)
		}
	}
}

func TestFrameZeroIsIFrame(t *testing.T) {
	p := Params{Width: 32, Height: 32, GOPSize: 100, Scenecut: 0}
	frames := testVideo(32, 32, 1, 0, 2)
	encoded := encodeAll(t, p, frames)
	if encoded[0].Type != FrameI {
		t.Fatalf("frame 0 type = %v, want I", encoded[0].Type)
	}
}

func TestGOPForcesIFrames(t *testing.T) {
	p := Params{Width: 32, Height: 32, GOPSize: 5, Scenecut: 0}
	frames := testVideo(32, 32, 16, 100, 3) // no object: only GOP boundaries
	encoded := encodeAll(t, p, frames)
	for i, ef := range encoded {
		wantI := i%5 == 0
		if (ef.Type == FrameI) != wantI {
			t.Errorf("frame %d type = %v, want I=%v", i, ef.Type, wantI)
		}
	}
}

func TestScenecutFiresOnObjectEntry(t *testing.T) {
	// The object covers ~5% of the frame; its entry pushes the inter/intra
	// cost ratio to ~0.45, so a threshold of 250 (fires at >= 0.375) must
	// catch it — the paper's observation that small objects need high
	// scenecut values.
	p := Params{Width: 64, Height: 48, GOPSize: 1000, Scenecut: 250}
	frames := testVideo(64, 48, 20, 8, 4)
	encoded := encodeAll(t, p, frames)
	// Frame 8 (object entry) must be an I-frame; quiet frames 1-7 must not.
	if encoded[8].Type != FrameI {
		t.Errorf("object-entry frame not an I-frame (costs: intra=%d inter=%d)",
			encoded[8].IntraCost, encoded[8].InterCost)
	}
	for i := 1; i < 8; i++ {
		if encoded[i].Type == FrameI {
			t.Errorf("quiet frame %d became an I-frame", i)
		}
	}
}

func TestScenecutMonotonicity(t *testing.T) {
	// Raising the threshold must never decrease the number of I-frames.
	frames := testVideo(64, 48, 30, 10, 5)
	count := func(sc float64) int {
		p := Params{Width: 64, Height: 48, GOPSize: 1000, Scenecut: sc}
		n := 0
		for _, ef := range encodeAll(t, p, frames) {
			if ef.Type == FrameI {
				n++
			}
		}
		return n
	}
	prev := -1
	for _, sc := range []float64{0, 40, 100, 200, 300, 400} {
		n := count(sc)
		if n < prev {
			t.Fatalf("scenecut %v produced %d I-frames, fewer than %d at lower threshold", sc, n, prev)
		}
		prev = n
	}
}

func TestGOPMonotonicity(t *testing.T) {
	frames := testVideo(64, 48, 40, 15, 6)
	count := func(gop int) int {
		p := Params{Width: 64, Height: 48, GOPSize: gop, Scenecut: 40}
		n := 0
		for _, ef := range encodeAll(t, p, frames) {
			if ef.Type == FrameI {
				n++
			}
		}
		return n
	}
	if count(5) < count(10) || count(10) < count(40) {
		t.Fatalf("shrinking GOP decreased I-frame count: gop5=%d gop10=%d gop40=%d",
			count(5), count(10), count(40))
	}
}

func TestIFrameIndependentDecode(t *testing.T) {
	p := Params{Width: 64, Height: 48, Quality: 90, GOPSize: 4, Scenecut: 0}
	frames := testVideo(64, 48, 12, 2, 7)
	encoded := encodeAll(t, p, frames)

	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, ef := range encoded {
		full, err := dec.Decode(ef.Data)
		if err != nil {
			t.Fatalf("sequential decode %d: %v", i, err)
		}
		if ef.Type != FrameI {
			continue
		}
		solo, err := DecodeIFrame(p, ef.Data)
		if err != nil {
			t.Fatalf("DecodeIFrame %d: %v", i, err)
		}
		if !solo.Equal(full) {
			t.Errorf("frame %d: independent I-frame decode differs from sequential decode", i)
		}
	}
}

func TestDecodeIFrameRejectsPFrame(t *testing.T) {
	p := Params{Width: 32, Height: 32, GOPSize: 100, Scenecut: 0}
	frames := testVideo(32, 32, 3, 100, 8)
	encoded := encodeAll(t, p, frames)
	if encoded[1].Type != FrameP {
		t.Fatalf("expected P-frame at 1, got %v", encoded[1].Type)
	}
	if _, err := DecodeIFrame(p, encoded[1].Data); !errors.Is(err, ErrNotIFrame) {
		t.Fatalf("DecodeIFrame(P) error = %v, want ErrNotIFrame", err)
	}
}

func TestPFrameWithoutReference(t *testing.T) {
	p := Params{Width: 32, Height: 32, GOPSize: 100, Scenecut: 0}
	frames := testVideo(32, 32, 2, 100, 9)
	encoded := encodeAll(t, p, frames)
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(encoded[1].Data); !errors.Is(err, ErrNoRef) {
		t.Fatalf("decode P without ref error = %v, want ErrNoRef", err)
	}
}

func TestNoDriftOverLongGOP(t *testing.T) {
	// PSNR must not decay over a long run of P-frames: encoder and decoder
	// references must stay in lockstep.
	p := Params{Width: 64, Height: 48, Quality: 85, GOPSize: 200, Scenecut: 0}
	frames := testVideo(64, 48, 60, 5, 10)
	encoded := encodeAll(t, p, frames)
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	var early, late float64
	for i, ef := range encoded {
		got, err := dec.Decode(ef.Data)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		psnr := frame.PSNRYUV(frames[i], got)
		if math.IsInf(psnr, 1) {
			psnr = 60
		}
		if i >= 5 && i < 20 {
			early += psnr
		}
		if i >= 45 {
			late += psnr
		}
	}
	early /= 15
	late /= 15
	if late < early-3 {
		t.Fatalf("PSNR drifted: early %.1f dB, late %.1f dB", early, late)
	}
}

func TestPFramesSmallerThanIFrames(t *testing.T) {
	p := Params{Width: 128, Height: 96, GOPSize: 30, Scenecut: 0}
	frames := testVideo(128, 96, 30, 5, 11)
	encoded := encodeAll(t, p, frames)
	var iSize, pSize, iN, pN int
	for _, ef := range encoded {
		if ef.Type == FrameI {
			iSize += len(ef.Data)
			iN++
		} else {
			pSize += len(ef.Data)
			pN++
		}
	}
	if iN == 0 || pN == 0 {
		t.Fatal("need both frame types")
	}
	avgI, avgP := iSize/iN, pSize/pN
	if avgP*3 > avgI {
		t.Fatalf("P-frames too large: avg I=%dB avg P=%dB (want P << I)", avgI, avgP)
	}
}

func TestEncodeForced(t *testing.T) {
	p := Params{Width: 32, Height: 32, GOPSize: 1000, Scenecut: 0}
	enc, err := NewEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	frames := testVideo(32, 32, 3, 100, 12)
	if _, err := enc.EncodeForced(frames[0], FrameP); err == nil {
		t.Fatal("EncodeForced(frame0, P) should fail")
	}
	ef, err := enc.EncodeForced(frames[0], FrameI)
	if err != nil || ef.Type != FrameI {
		t.Fatalf("forced I: %v %v", ef, err)
	}
	ef, err = enc.EncodeForced(frames[1], FrameI)
	if err != nil || ef.Type != FrameI {
		t.Fatalf("forced I mid-stream: %v %v", ef, err)
	}
}

func TestDecodeCorruptData(t *testing.T) {
	p := Params{Width: 32, Height: 32, GOPSize: 10, Scenecut: 0}
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(nil); err == nil {
		t.Fatal("decoding empty payload should fail")
	}
	// Truncated I-frame payload.
	frames := testVideo(32, 32, 1, 100, 13)
	encoded := encodeAll(t, p, frames)
	if _, err := dec.Decode(encoded[0].Data[:len(encoded[0].Data)/4]); err == nil {
		t.Fatal("decoding truncated payload should fail")
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Width: 0, Height: 32, GOPSize: 10},
		{Width: 33, Height: 32, GOPSize: 10},
		{Width: 32, Height: 32, GOPSize: 0},
		{Width: 32, Height: 32, GOPSize: 10, Quality: 101},
		{Width: 32, Height: 32, GOPSize: 10, Scenecut: 500},
		{Width: 32, Height: 32, GOPSize: 10, Scenecut: -1},
		{Width: 32, Height: 32, GOPSize: 10, Scenecut: math.NaN()},
		{Width: 32, Height: 32, GOPSize: 10, Scenecut: math.Inf(1)},
		{Width: 32, Height: 32, GOPSize: 10, Scenecut: math.Inf(-1)},
		{Width: 32, Height: 32, GOPSize: 10, SearchRange: -2},
	}
	for i, p := range bad {
		if _, err := NewEncoder(p); err == nil {
			t.Errorf("params %d should be rejected: %+v", i, p)
		}
	}
	if _, err := NewEncoder(Defaults(64, 48)); err != nil {
		t.Errorf("Defaults rejected: %v", err)
	}
}

func TestFrameSizeMismatch(t *testing.T) {
	p := Params{Width: 32, Height: 32, GOPSize: 10}
	enc, err := NewEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Encode(frame.NewYUV(64, 64)); err == nil {
		t.Fatal("mismatched frame size should fail")
	}
}

func TestNonMultipleOf16Dimensions(t *testing.T) {
	// 36x28: neither a macroblock nor an 8x8 multiple in chroma.
	p := Params{Width: 36, Height: 28, Quality: 85, GOPSize: 4, Scenecut: 0}
	frames := testVideo(36, 28, 8, 2, 14)
	encoded := encodeAll(t, p, frames)
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, ef := range encoded {
		got, err := dec.Decode(ef.Data)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got.W != 36 || got.H != 28 {
			t.Fatalf("decoded size %dx%d", got.W, got.H)
		}
		if psnr := frame.PSNRYUV(frames[i], got); psnr < 28 {
			t.Errorf("frame %d PSNR %.1f too low", i, psnr)
		}
	}
}

func TestDecideTypePure(t *testing.T) {
	p := Params{Width: 32, Height: 32, GOPSize: 100, Scenecut: 40, MinGOP: 1}
	if err := p.normalize(); err != nil {
		t.Fatal(err)
	}
	// Frame 0.
	if got := DecideType(Cost{100, 100}, 0, p); got != FrameI {
		t.Errorf("frame 0 = %v", got)
	}
	// GOP bound.
	if got := DecideType(Cost{1000, 1}, 100, p); got != FrameI {
		t.Errorf("GOP bound = %v", got)
	}
	// Low motion: P.
	if got := DecideType(Cost{1000, 10}, 5, p); got != FrameP {
		t.Errorf("low motion = %v", got)
	}
	// Inter cost ~ intra cost at scenecut 40 (bias 0.1 → fire at >= 0.9).
	if got := DecideType(Cost{1000, 950}, 5, p); got != FrameI {
		t.Errorf("high motion = %v", got)
	}
	// MinGOP suppression.
	p.MinGOP = 10
	if got := DecideType(Cost{1000, 950}, 5, p); got != FrameP {
		t.Errorf("minGOP suppression = %v", got)
	}
	// Scenecut 0 disables.
	p.MinGOP = 1
	p.Scenecut = 0
	if got := DecideType(Cost{1000, 5000}, 5, p); got != FrameP {
		t.Errorf("scenecut disabled = %v", got)
	}
}

func TestPayloadFrameType(t *testing.T) {
	p := Params{Width: 32, Height: 32, GOPSize: 3, Scenecut: 0}
	frames := testVideo(32, 32, 6, 100, 15)
	encoded := encodeAll(t, p, frames)
	for i, ef := range encoded {
		got, err := PayloadFrameType(ef.Data)
		if err != nil || got != ef.Type {
			t.Errorf("frame %d: PayloadFrameType = %v, %v; want %v", i, got, err, ef.Type)
		}
	}
	if _, err := PayloadFrameType(nil); err == nil {
		t.Error("empty payload should error")
	}
}

func TestFullSearchAtLeastAsGoodAsDiamond(t *testing.T) {
	frames := testVideo(64, 48, 2, 0, 16)
	cur, ref := frames[1].Y, frames[0].Y
	refPad := padPlane(ref, mbSize, 16)
	for _, pos := range [][2]int{{0, 0}, {16, 16}, {32, 16}} {
		b := encoderBlock(cur, refPad, pos[0], pos[1], mbSize)
		_, dSAD := diamondSearch(b, MV{}, newVisited(16))
		_, fSAD := fullSearch(b, 16)
		if fSAD > dSAD {
			t.Errorf("full search SAD %d worse than diamond %d at %v", fSAD, dSAD, pos)
		}
	}
}

func TestAnalyzerReplayMatchesEncoderDecisions(t *testing.T) {
	// The same decision rule applied to CostAnalyzer output must reproduce
	// the encoder's actual frame types (the tuner replay invariant).
	p := Params{Width: 64, Height: 48, GOPSize: 12, Scenecut: 180}
	frames := testVideo(64, 48, 40, 9, 17)
	encoded := encodeAll(t, p, frames)

	an := NewCostAnalyzer()
	if err := p.normalize(); err != nil {
		t.Fatal(err)
	}
	sinceI := 0
	for i, f := range frames {
		c := an.Analyze(f)
		dist := 0
		if i > 0 {
			dist = sinceI + 1
		}
		ft := DecideType(c, dist, p)
		if ft == FrameI {
			sinceI = 0
		} else {
			sinceI++
		}
		if ft != encoded[i].Type {
			t.Fatalf("frame %d: replay %v, encoder %v", i, ft, encoded[i].Type)
		}
	}
}

func TestDownsample2x(t *testing.T) {
	p := frame.NewPlane(4, 4)
	vals := []byte{
		10, 20, 30, 40,
		10, 20, 30, 40,
		50, 50, 60, 60,
		50, 50, 60, 60,
	}
	copy(p.Pix, vals)
	d := Downsample2x(p)
	if d.W != 2 || d.H != 2 {
		t.Fatalf("dims %dx%d", d.W, d.H)
	}
	if d.At(0, 0) != 15 || d.At(1, 0) != 35 || d.At(0, 1) != 50 || d.At(1, 1) != 60 {
		t.Fatalf("downsample values: %v", d.Pix)
	}
}

func BenchmarkEncodeP64x48(b *testing.B) {
	p := Params{Width: 64, Height: 48, GOPSize: 1 << 20, Scenecut: 0}
	frames := testVideo(64, 48, 2, 100, 18)
	enc, err := NewEncoder(p)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := enc.Encode(frames[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(frames[1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeI64x48(b *testing.B) {
	p := Params{Width: 64, Height: 48, GOPSize: 10, Scenecut: 0}
	enc, err := NewEncoder(p)
	if err != nil {
		b.Fatal(err)
	}
	frames := testVideo(64, 48, 1, 0, 19)
	ef, err := enc.Encode(frames[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeIFrame(p, ef.Data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestForceNextIOverridesDecision(t *testing.T) {
	// Quiet scene, huge GOP: without forcing, every frame after 0 is a P.
	p := Params{Width: 32, Height: 32, GOPSize: 100, Scenecut: 0}
	frames := testVideo(32, 32, 10, 100, 6)
	enc, err := NewEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	var ef EncodedFrame
	for i, f := range frames {
		if i == 4 {
			enc.ForceNextI()
		}
		if err := enc.EncodeInto(f, &ef); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		wantI := i == 0 || i == 4
		if (ef.Type == FrameI) != wantI {
			t.Errorf("frame %d type = %v, want I=%v", i, ef.Type, wantI)
		}
		// The forced I-frame stream must stay decodable end to end.
		if _, err := dec.Decode(ef.Data); err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
	}
	// The flag is one-shot and resets the GOP distance: frame 4+GOPSize
	// would be the next scheduled I, nothing before it.
	if enc.sinceI != len(frames)-1-4 {
		t.Fatalf("sinceI = %d after forced I at 4, want %d", enc.sinceI, len(frames)-1-4)
	}
}
