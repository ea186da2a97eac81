package codec

import (
	"fmt"
	"testing"

	"sieve/internal/frame"
)

// TestEncoderReconMatchesDecoders is the contract that lets a detector read
// Encoder.Recon instead of decoding the payload the encoder just wrote:
// after every frame the encoder's reconstruction equals what a sequential
// Decoder produces from the payloads, byte for byte, and after every
// I-frame it also equals what the independent IFrameDecoder produces from
// that one payload. The clips are noisy, so nearly every block is coded,
// and the 600×400 geometry has chroma planes 300 wide, whose last block
// column hangs half outside the plane. The view's luma plane lies inside
// the encoder's padded reference: its rows are further apart than its
// width, and its Pix must end at the last pixel of its last row, so that
// no reader that walks Pix reaches the border; Equal compares it row by
// row, through Stride.
func TestEncoderReconMatchesDecoders(t *testing.T) {
	for _, g := range []struct{ w, h int }{{320, 240}, {600, 400}} {
		for _, gop := range []int{4, 25} {
			t.Run(fmt.Sprintf("%dx%d/gop%d", g.w, g.h, gop), func(t *testing.T) {
				p := Params{Width: g.w, Height: g.h, Quality: 85, GOPSize: gop, Scenecut: 0}
				frames := noisyVideo(g.w, g.h, 30, 6, int64(g.w+gop))
				enc, err := NewEncoder(p)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := NewDecoder(p)
				if err != nil {
					t.Fatal(err)
				}
				ifd, err := NewIFrameDecoder(p)
				if err != nil {
					t.Fatal(err)
				}
				out := frame.NewYUV(g.w, g.h)
				var ef EncodedFrame
				iframes := 0
				for i, f := range frames {
					if err := enc.EncodeInto(f, &ef); err != nil {
						t.Fatal(err)
					}
					if err := dec.DecodeInto(ef.Data, out); err != nil {
						t.Fatalf("frame %d: %v", i, err)
					}
					y := enc.Recon().Y
					if y.Stride <= y.W || len(y.Pix) != (y.H-1)*y.Stride+y.W || cap(y.Pix) != len(y.Pix) {
						t.Fatalf("frame %d: recon luma %dx%d, stride %d, len(Pix) %d, cap %d: want a padded stride and Pix cut at pixel (W-1, H-1)",
							i, y.W, y.H, y.Stride, len(y.Pix), cap(y.Pix))
					}
					if !enc.Recon().Equal(out) {
						t.Fatalf("frame %d (%v): encoder reconstruction differs from Decoder.DecodeInto", i, ef.Type)
					}
					if ef.Type != FrameI {
						continue
					}
					iframes++
					solo, err := ifd.Decode(ef.Data)
					if err != nil {
						t.Fatalf("frame %d: %v", i, err)
					}
					if !enc.Recon().Equal(solo) {
						t.Fatalf("frame %d: encoder reconstruction differs from IFrameDecoder.Decode", i)
					}
				}
				if want := (len(frames) + gop - 1) / gop; iframes != want {
					t.Fatalf("%d I-frames in %d frames at GOP %d, want %d", iframes, len(frames), gop, want)
				}
			})
		}
	}
}
