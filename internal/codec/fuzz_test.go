package codec

import (
	"testing"

	"sieve/internal/frame"
)

// FuzzDecode feeds arbitrary payloads to the steady-state DecodeInto path
// and checks the decoder's two crash-safety invariants: no input panics,
// and a REJECTED payload leaves the ping-pong reference untouched — the
// stream keeps decoding afterwards exactly as if the corrupt frame had
// never arrived (losing one frame to line noise must not wreck the GOP).
func FuzzDecode(f *testing.F) {
	p := Params{Width: 32, Height: 24, Quality: 85, GOPSize: 4, Scenecut: 0}
	frames := testVideo(32, 24, 6, 2, 42)
	enc, err := NewEncoder(p)
	if err != nil {
		f.Fatal(err)
	}
	seeds := make([][]byte, 0, len(frames))
	for _, fr := range frames {
		ef, err := enc.Encode(fr)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, append([]byte(nil), ef.Data...))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// Seed obvious corruptions: truncation, type-byte damage, bit flips.
	f.Add(seeds[0][:len(seeds[0])/2])
	flipped := append([]byte(nil), seeds[1]...)
	flipped[0] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte{})
	// An AC run of 2⁶⁴−2 once indexed the block at −1 and panicked.
	f.Add(panicPayload())

	f.Fuzz(func(t *testing.T, data []byte) {
		control, err := NewDecoder(p)
		if err != nil {
			t.Fatal(err)
		}
		subject, err := NewDecoder(p)
		if err != nil {
			t.Fatal(err)
		}
		// Both decoders establish the same reference from the seed I-frame.
		if _, err := control.Decode(seeds[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := subject.Decode(seeds[0]); err != nil {
			t.Fatal(err)
		}
		out := frame.NewYUV(p.Width, p.Height)
		if err := subject.DecodeInto(data, out); err == nil {
			// The fuzzer found a decodable payload: garbage pixels are
			// acceptable, the reference legitimately advanced. Done.
			return
		}
		// The payload was rejected: the subject's reference must be intact,
		// so the next valid P-frame decodes identically on both decoders.
		want, err := control.Decode(seeds[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := subject.Decode(seeds[1])
		if err != nil {
			t.Fatalf("decoder broken after rejected payload: %v", err)
		}
		if !want.Equal(got) {
			t.Fatal("rejected payload corrupted the decoder's reference state")
		}
	})
}
