package codec

import (
	"runtime"
	"testing"
	"weak"

	"sieve/internal/frame"
)

// The codec's steady-state hot path must not allocate: wall-clock is too
// noisy to gate a unit test on (bench/ measures it, on alternated pairs),
// but allocs/op is exact and deterministic, so these tests are the
// enforceable form of "the hot path stays allocation-free". Warm-up calls let one-time buffers
// (bitstream writer capacity, analyzer half-res planes, ef.Data) reach their
// steady-state capacity first.

func TestEncodeIntoSteadyStateZeroAlloc(t *testing.T) {
	p := Params{Width: 64, Height: 48, Quality: 85, GOPSize: 1 << 20, Scenecut: 0}
	frames := testVideo(64, 48, 4, 1, 21)
	enc, err := NewEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	var ef EncodedFrame
	for _, f := range frames {
		if err := enc.EncodeInto(f, &ef); err != nil {
			t.Fatal(err)
		}
		if ef.Type != FrameI && ef.Type != FrameP {
			t.Fatalf("unexpected frame type %v", ef.Type)
		}
	}
	f := frames[len(frames)-1]
	allocs := testing.AllocsPerRun(50, func() {
		if err := enc.EncodeInto(f, &ef); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state P-frame EncodeInto: %.1f allocs/op, want 0", allocs)
	}
}

// TestEncodeReconViewZeroAlloc is the session's detection path in miniature:
// encode a frame and, when it is an I-frame, read the encoder's
// reconstruction in place of decoding the payload. GOP 2 puts an I-frame in
// every other op, so both frame types and the view are on the measured path.
func TestEncodeReconViewZeroAlloc(t *testing.T) {
	p := Params{Width: 64, Height: 48, Quality: 85, GOPSize: 2, Scenecut: 0}
	frames := testVideo(64, 48, 4, 1, 24)
	enc, err := NewEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	var ef EncodedFrame
	sum := 0
	step := func(f *frame.YUV) {
		if err := enc.EncodeInto(f, &ef); err != nil {
			t.Fatal(err)
		}
		if ef.Type == FrameI {
			v := enc.Recon()
			sum += int(v.Y.Pix[0]) + int(v.Cb.Pix[len(v.Cb.Pix)-1])
		}
	}
	for _, f := range frames {
		step(f)
	}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		step(frames[i%len(frames)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state encode-then-view: %.1f allocs/op, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("the view read nothing but zeros")
	}
}

func TestDecodeIntoSteadyStateZeroAlloc(t *testing.T) {
	p := Params{Width: 64, Height: 48, Quality: 85, GOPSize: 1 << 20, Scenecut: 0}
	frames := testVideo(64, 48, 3, 1, 22)
	encoded := encodeAll(t, p, frames)
	if encoded[2].Type != FrameP {
		t.Fatalf("frame 2 is %v, want P", encoded[2].Type)
	}
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	out := frame.NewYUV(64, 48)
	for _, ef := range encoded {
		if err := dec.DecodeInto(ef.Data, out); err != nil {
			t.Fatal(err)
		}
	}
	// Re-decoding the same P payload against the rolling reference is not a
	// valid stream, but it exercises exactly the steady-state work profile.
	data := encoded[2].Data
	allocs := testing.AllocsPerRun(50, func() {
		if err := dec.DecodeInto(data, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state P-frame DecodeInto: %.1f allocs/op, want 0", allocs)
	}
}

func TestAnalyzeSteadyStateZeroAlloc(t *testing.T) {
	frames := testVideo(64, 48, 3, 1, 23)
	an := NewCostAnalyzer()
	for _, f := range frames {
		an.Analyze(f)
	}
	f := frames[len(frames)-1]
	allocs := testing.AllocsPerRun(50, func() {
		an.Analyze(f)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Analyze: %.1f allocs/op, want 0", allocs)
	}
}

// TestReferencePlaneBytes pins what the padded references cost: the exact
// bytes of the encoder's two reference frames and the analyzer's two
// half-res planes, once one frame has allocated the latter. Only luma is
// padded, and only by the search range on the left and top and by the
// range plus the last block's overhang on the right and bottom; a border
// that grows, or spreads to chroma, moves these numbers.
func TestReferencePlaneBytes(t *testing.T) {
	for _, c := range []struct {
		w, h          int
		refs, analyze int
	}{
		// Luma (16+600+24)×(16+400+16), chroma 2·300×200, twice;
		// half-res (8+300+12)×(8+200+8), twice.
		{600, 400, 2 * (640*432 + 2*300*200), 2 * 320 * 216},
		// Luma (16+320+16)×(16+240+16), chroma 2·160×120, twice;
		// half-res (8+160+8)×(8+120+8), twice.
		{320, 240, 2 * (352*272 + 2*160*120), 2 * 176 * 136},
	} {
		enc, err := NewEncoder(Params{Width: c.w, Height: c.h, GOPSize: 25, SearchRange: 16})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := enc.Encode(testVideo(c.w, c.h, 1, 0, 25)[0]); err != nil {
			t.Fatal(err)
		}
		refs := 0
		for _, r := range []*reference{enc.recon, enc.scratch} {
			refs += cap(r.luma.buf) + cap(r.Cb.Pix) + cap(r.Cr.Pix)
		}
		analyze := cap(enc.analyzer.half[0].buf) + cap(enc.analyzer.half[1].buf)
		if refs != c.refs || analyze != c.analyze {
			t.Errorf("%dx%d at range 16: reference frames %d B, analyzer planes %d B; want %d and %d",
				c.w, c.h, refs, analyze, c.refs, c.analyze)
		}
	}
}

// TestDecodeIntoMatchesDecode pins the wrapper equivalence: DecodeInto into
// a reused frame yields exactly what the allocating Decode returns, and a
// caller mutating the output frame between calls cannot corrupt the
// decoder's reference state.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	p := Params{Width: 64, Height: 48, Quality: 85, GOPSize: 6, Scenecut: 120}
	frames := testVideo(64, 48, 14, 4, 24)
	encoded := encodeAll(t, p, frames)

	ref, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	into, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	out := frame.NewYUV(64, 48)
	for i, ef := range encoded {
		want, err := ref.Decode(ef.Data)
		if err != nil {
			t.Fatalf("Decode %d: %v", i, err)
		}
		if err := into.DecodeInto(ef.Data, out); err != nil {
			t.Fatalf("DecodeInto %d: %v", i, err)
		}
		if !out.Equal(want) {
			t.Fatalf("frame %d: DecodeInto differs from Decode", i)
		}
		// Scribble over the caller-owned frame; the decoder must not care.
		out.Fill(0, 0, 0)
	}
}

func TestDecodeIntoRejectsBadGeometry(t *testing.T) {
	p := Params{Width: 64, Height: 48, GOPSize: 10, Scenecut: 0}
	frames := testVideo(64, 48, 1, 0, 25)
	encoded := encodeAll(t, p, frames)
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.DecodeInto(encoded[0].Data, frame.NewYUV(32, 32)); err == nil {
		t.Fatal("mismatched output geometry should fail")
	}
	if err := dec.DecodeInto(encoded[0].Data, nil); err == nil {
		t.Fatal("nil output frame should fail")
	}
}

// TestDecodeIntoCorruptKeepsReference verifies the swap-on-success rule: a
// failed decode leaves the previous reference intact, so the stream can
// continue from the next good payload.
func TestDecodeIntoCorruptKeepsReference(t *testing.T) {
	p := Params{Width: 64, Height: 48, Quality: 85, GOPSize: 1 << 20, Scenecut: 0}
	frames := testVideo(64, 48, 4, 1, 26)
	encoded := encodeAll(t, p, frames)

	ref, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	out := frame.NewYUV(64, 48)
	want := frame.NewYUV(64, 48)
	for i := 0; i < 2; i++ {
		if err := ref.DecodeInto(encoded[i].Data, want); err != nil {
			t.Fatal(err)
		}
		if err := dec.DecodeInto(encoded[i].Data, out); err != nil {
			t.Fatal(err)
		}
	}
	// A truncated P-frame payload must fail without advancing the reference.
	bad := encoded[2].Data[:1]
	if err := dec.DecodeInto(bad, out); err == nil {
		t.Fatal("truncated payload should fail")
	}
	// Frames 2 and 3 must still decode identically to the clean decoder.
	for i := 2; i < 4; i++ {
		if err := ref.DecodeInto(encoded[i].Data, want); err != nil {
			t.Fatal(err)
		}
		if err := dec.DecodeInto(encoded[i].Data, out); err != nil {
			t.Fatalf("decode %d after corrupt payload: %v", i, err)
		}
		if !out.Equal(want) {
			t.Fatalf("frame %d differs after mid-stream corrupt payload", i)
		}
	}
}

// TestDecodersHoldNoPayload: a long-lived decoder must not keep the last
// payload it read reachable — an archive scanner's decoders would otherwise
// pin one payload each for as long as they live. Checked after a successful
// decode, a corrupt payload and, for IFrameDecoder, a P-frame payload.
func TestDecodersHoldNoPayload(t *testing.T) {
	p := Params{Width: 64, Height: 48, Quality: 85, GOPSize: 2, Scenecut: 0}
	encoded := encodeAll(t, p, testVideo(64, 48, 2, 1, 28))
	iframe, pframe := encoded[0].Data, encoded[1].Data
	if encoded[1].Type != FrameP {
		t.Fatalf("frame 1 is %v, want P", encoded[1].Type)
	}
	corrupt := iframe[:len(iframe)/2]
	idec, err := NewIFrameDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	out := frame.NewYUV(64, 48)
	iframeDecode := func(b []byte) error { _, err := idec.Decode(b); return err }
	decodeInto := func(b []byte) error { return dec.DecodeInto(b, out) }
	for _, c := range []struct {
		name    string
		decode  func([]byte) error
		payload []byte
		wantErr bool
	}{
		{"IFrameDecoder, I-frame", iframeDecode, iframe, false},
		{"IFrameDecoder, corrupt", iframeDecode, corrupt, true},
		{"IFrameDecoder, P-frame", iframeDecode, pframe, true},
		{"Decoder, I-frame", decodeInto, iframe, false},
		{"Decoder, P-frame", decodeInto, pframe, false},
		{"Decoder, corrupt", decodeInto, corrupt, true},
	} {
		wp, err := decodeCopy(c.payload, c.decode)
		if (err != nil) != c.wantErr {
			t.Fatalf("%s: err = %v, want error %v", c.name, err, c.wantErr)
		}
		runtime.GC()
		if wp.Value() != nil {
			t.Errorf("%s: the decoder still reaches the payload after Decode returned", c.name)
		}
	}
}

// decodeCopy decodes a private copy of payload — at least 64 bytes of
// allocation, so it never shares a tiny-allocator block — and returns a weak
// pointer to it; nothing but the decoder can reach the copy afterwards.
//
//go:noinline
func decodeCopy(payload []byte, decode func([]byte) error) (weak.Pointer[byte], error) {
	buf := append(make([]byte, 0, len(payload)+64), payload...)
	return weak.Make(&buf[0]), decode(buf)
}

// TestIFrameDecoderMatchesDecodeIFrame pins the reused-buffer I-frame
// decoder (the session detection path) against the allocating one-shot
// DecodeIFrame, and its steady-state zero-alloc contract.
func TestIFrameDecoderMatchesDecodeIFrame(t *testing.T) {
	p := Params{Width: 64, Height: 48, Quality: 85, GOPSize: 2, Scenecut: 0}
	frames := testVideo(64, 48, 6, 1, 27)
	encoded := encodeAll(t, p, frames)

	d, err := NewIFrameDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	var lastI []byte
	for _, ef := range encoded {
		if ef.Type != FrameI {
			// P payloads must be rejected without touching state.
			if _, err := d.Decode(ef.Data); err != ErrNotIFrame {
				t.Fatalf("P payload: err = %v, want ErrNotIFrame", err)
			}
			continue
		}
		lastI = ef.Data
		want, err := DecodeIFrame(p, ef.Data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Decode(ef.Data)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("frame %d: reused-buffer decode differs from DecodeIFrame", ef.Number)
		}
	}
	if lastI == nil {
		t.Fatal("no I-frames in test stream")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.Decode(lastI); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state IFrameDecoder.Decode: %.1f allocs/op, want 0", allocs)
	}
}
