package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"sieve/internal/frame"
)

// The two digests below pin the detector's output bits. They were recorded
// on commit 2b66461, before the per-tensor forward path was removed, and any
// change to the convolution kernels, the traversal, the input conversion or
// the training loop that moves a single bit fails here mechanically, instead
// of showing up only through bench/expected.json's downstream counts.
const (
	// goldenTrainDigest covers every Conv2D's W and B after Train on
	// goldenTrainFrames at input 96.
	goldenTrainDigest = "1ba01e3b58d76de3369989f2ca04a463dff820b70bacdbaa52005a138480561e"
	// goldenForwardDigest covers the final ForwardBatch output of four
	// noise frames at input 96 and then at input 300.
	goldenForwardDigest = "c116ce4637038ec8528864d889b5bec114d827081495df284ef47899efec1321"
)

// hashFloats appends the bit patterns of v to h, little-endian.
func hashFloats(h hash.Hash, v []float32) {
	var b [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
}

// goldenTrainFrames is a small labelled fixture: four noise frames, each
// with two boxes of different classes at different places, so every class
// has positive cells and the hard-negative rim around them is populated.
func goldenTrainFrames() []LabeledFrame {
	out := make([]LabeledFrame, 4)
	for i := range out {
		out[i] = LabeledFrame{
			Frame: noiseFrame(128, 96, uint64(500+i)),
			Boxes: []ObjectBox{
				{Class: "car", X: 8 + 10*i, Y: 12, W: 48, H: 32},
				{Class: "person", X: 88 - 6*i, Y: 50 + 4*i, W: 22, H: 40},
			},
		}
	}
	return out
}

func TestGoldenTrainedWeights(t *testing.T) {
	d := NewYOLite([]string{"car", "person"}, 96)
	if _, err := d.Train(goldenTrainFrames(), TrainConfig{Epochs: 6, Seed: 21}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	convs := 0
	for _, l := range d.net.Layers {
		c, ok := l.(*Conv2D)
		if !ok {
			continue
		}
		for o := range c.W {
			for i := range c.W[o] {
				hashFloats(h, c.W[o][i])
			}
		}
		hashFloats(h, c.B)
		convs++
	}
	if convs != 6 {
		t.Fatalf("hashed %d convolutions, want 6", convs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTrainDigest {
		t.Fatalf("trained weights digest %s, want %s", got, goldenTrainDigest)
	}
}

func TestGoldenForward(t *testing.T) {
	h := sha256.New()
	for _, size := range []int{96, 300} {
		d := randomHeadDetector([]string{"car", "bus", "person"}, size, 41)
		frames := []*frame.YUV{
			noiseFrame(320, 240, 1), noiseFrame(160, 120, 2),
			noiseFrame(96, 96, 3), noiseFrame(640, 400, 4),
		}
		in := NewBatch(len(frames), 3, size, size)
		for i, f := range frames {
			fromYUVInto(in.Item(i), f, size)
		}
		var scratch BatchScratch
		hashFloats(h, d.net.ForwardBatch(in, &scratch).Data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenForwardDigest {
		t.Fatalf("forward output digest %s, want %s", got, goldenForwardDigest)
	}
}
