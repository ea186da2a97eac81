package sieve

import (
	"context"
	"testing"

	"sieve/internal/container"
	"sieve/internal/synth"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	// Quickstart flow: dataset → tune → encode → seek → decode I-frames.
	// 20 s, also under -short: the tuned stream must hold at least two
	// I-frames for the seeker check below, and at 8–12 s it holds one.
	v, err := LoadDataset(synth.JacksonSquare, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	best, err := Tune(context.Background(), v, DefaultSweep())
	if err != nil {
		t.Fatal(err)
	}
	spec := v.Spec()
	var buf container.Buffer
	stats, err := EncodeStream(context.Background(), NewSynthSource(v), &buf,
		WithTunedParams(TunedParams(spec.Width, spec.Height, best.Config)))
	if err != nil {
		t.Fatal(err)
	}
	iCount := stats.IFrames

	r, err := OpenStream(&buf, buf.Size())
	if err != nil {
		t.Fatal(err)
	}
	seeker := NewIFrameSeeker(r)
	ifr := seeker.IFrames()
	if len(ifr) != iCount {
		t.Fatalf("seeker found %d I-frames, encoder wrote %d", len(ifr), iCount)
	}
	if seeker.FilterRate() <= 0.5 {
		t.Fatalf("filter rate %.3f too low", seeker.FilterRate())
	}
	if len(ifr) < 2 {
		t.Fatalf("%d I-frames, want two to decode", len(ifr))
	}
	img, err := seeker.DecodeIFrame(ifr[0])
	if err != nil {
		t.Fatal(err)
	}
	if img.W != spec.Width || img.H != spec.Height {
		t.Fatalf("decoded %dx%d", img.W, img.H)
	}
	// The decoded frame is the caller's: a second decode leaves it alone,
	// and both equal the sequential decoder's frames at their indices.
	img2, err := seeker.DecodeIFrame(ifr[1])
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(r.Info())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= ifr[1].Index; i++ {
		payload, err := r.Payload(i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dec.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if i == ifr[0].Index && !img.Equal(want) {
			t.Fatalf("I-frame %d changed after decoding I-frame %d, or differs from the sequential decode", i, ifr[1].Index)
		}
		if i == ifr[1].Index && !img2.Equal(want) {
			t.Fatalf("I-frame %d differs from the sequential decode", i)
		}
	}
}

func TestDatasetsList(t *testing.T) {
	if len(Datasets()) != 5 {
		t.Fatalf("datasets = %d", len(Datasets()))
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(640, 400)
	if p.GOPSize != 250 || p.Scenecut != 40 {
		t.Fatalf("defaults = %+v", p)
	}
}
