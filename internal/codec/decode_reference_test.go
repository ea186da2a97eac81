package codec

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sieve/internal/bitstream"
	"sieve/internal/frame"
	"sieve/internal/transform"
)

// refBlockDecoder is the block decoder this package shipped before the parse
// fed the inverse transform directly, kept as the oracle: it zeroes a
// zig-zag-order block per coded block, un-zig-zags it and runs the inverse
// over every row and column (it let Quantizer.Inverse find the non-empty
// ones; that entry point has no codec caller left). The one other edit is
// the fix that came with its replacement: a run above 62 and an AC level
// outside int32 are corrupt (the first used to index the block at a
// negative position, the second to decode as a different level). It stores
// through the Go kernels (writePredBlockGo, writeResidualBlockGo), so on
// amd64 the comparison covers the assembly store as well.
type refBlockDecoder struct {
	qz      *transform.Quantizer
	pred    transform.Block
	zz, lev transform.Block
	rec     transform.Block
	dcPred  int32
}

func (bd *refBlockDecoder) decodeBlock(r *bitstream.Reader, dst *frame.Plane, bx, by int) error {
	coded, err := r.ReadBit()
	if err != nil {
		return fmt.Errorf("coded-block flag: %w", err)
	}
	if coded == 0 {
		writePredBlockGo(dst, bx, by, &bd.pred)
		return nil
	}
	for i := range bd.zz {
		bd.zz[i] = 0
	}
	dcDelta, err := r.ReadSE()
	if err != nil {
		return fmt.Errorf("dc delta: %w", err)
	}
	bd.dcPred += int32(dcDelta)
	bd.zz[0] = bd.dcPred
	pos := 1
	for {
		run, err := r.ReadUE()
		if err != nil {
			return fmt.Errorf("ac run: %w", err)
		}
		if run == eobMarker {
			break
		}
		if run > 62 {
			return fmt.Errorf("%w: AC run %d", ErrCorrupt, run)
		}
		pos += int(run)
		if pos >= len(bd.zz) {
			return fmt.Errorf("%w: run-level overflow at position %d", ErrCorrupt, pos)
		}
		level, err := r.ReadSE()
		if err != nil {
			return fmt.Errorf("ac level: %w", err)
		}
		if level == 0 {
			return fmt.Errorf("%w: zero AC level", ErrCorrupt)
		}
		if level != int64(int32(level)) {
			return fmt.Errorf("%w: AC level %d out of range", ErrCorrupt, level)
		}
		bd.zz[pos] = int32(level)
		pos++
	}
	for i, l := range bd.zz {
		bd.lev[transform.ScanIndex(i)] = l
	}
	// Every row and column named: the masked inverse without masks.
	const all = 1<<transform.BlockSize - 1
	bd.qz.InverseMasked(&bd.lev, all, all, &bd.rec)
	writeResidualBlockGo(dst, bx, by, &bd.pred, &bd.rec)
	return nil
}

// refDecode decodes one payload through refBlockDecoder, with the frame
// loops decodeIntraInto and decodeInterInto run: an I-frame into a fresh
// frame, a P-frame predicted from prev (nil: no reference yet).
func refDecode(p Params, prev *frame.YUV, data []byte) (*frame.YUV, error) {
	var r bitstream.Reader
	ft, quality, err := readFrameHeader(&r, data)
	if err != nil {
		return nil, err
	}
	bd := &refBlockDecoder{qz: transform.NewQuantizer(quality)}
	out := frame.NewYUV(p.Width, p.Height)
	if ft == FrameI {
		fillPredConst(&bd.pred)
		for _, pl := range [3]*frame.Plane{out.Y, out.Cb, out.Cr} {
			bd.dcPred = 0
			for by := 0; by < pl.H; by += transform.BlockSize {
				for bx := 0; bx < pl.W; bx += transform.BlockSize {
					if err := bd.decodeBlock(&r, pl, bx, by); err != nil {
						return nil, fmt.Errorf("intra block (%d,%d): %w", bx, by, err)
					}
				}
			}
		}
		return out, nil
	}
	if prev == nil {
		return nil, ErrNoRef
	}
	dcY, dcCb, dcCr := int32(0), int32(0), int32(0)
	for mby := 0; mby < p.Height; mby += mbSize {
		pred := MV{}
		for mbx := 0; mbx < p.Width; mbx += mbSize {
			skip, err := r.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("mb (%d,%d) skip flag: %w", mbx, mby, err)
			}
			if skip == 1 {
				copyBlock(out.Y, prev.Y, mbx, mby, mbSize)
				copyBlock(out.Cb, prev.Cb, mbx/2, mby/2, mbSize/2)
				copyBlock(out.Cr, prev.Cr, mbx/2, mby/2, mbSize/2)
				pred = MV{}
				continue
			}
			dx, err := r.ReadSE()
			if err != nil {
				return nil, fmt.Errorf("mb (%d,%d) mv.x: %w", mbx, mby, err)
			}
			dy, err := r.ReadSE()
			if err != nil {
				return nil, fmt.Errorf("mb (%d,%d) mv.y: %w", mbx, mby, err)
			}
			mv := MV{pred.X + int(dx), pred.Y + int(dy)}
			pred = mv
			bd.dcPred = dcY
			for sub := 0; sub < 4; sub++ {
				bx := mbx + (sub%2)*transform.BlockSize
				by := mby + (sub/2)*transform.BlockSize
				fillPredMC(&bd.pred, prev.Y, bx, by, mv)
				if err := bd.decodeBlock(&r, out.Y, bx, by); err != nil {
					return nil, fmt.Errorf("mb (%d,%d) luma: %w", mbx, mby, err)
				}
			}
			dcY = bd.dcPred
			cmv := MV{mv.X / 2, mv.Y / 2}
			cbx, cby := mbx/2, mby/2
			bd.dcPred = dcCb
			fillPredMC(&bd.pred, prev.Cb, cbx, cby, cmv)
			if err := bd.decodeBlock(&r, out.Cb, cbx, cby); err != nil {
				return nil, fmt.Errorf("mb (%d,%d) cb: %w", mbx, mby, err)
			}
			dcCb = bd.dcPred
			bd.dcPred = dcCr
			fillPredMC(&bd.pred, prev.Cr, cbx, cby, cmv)
			if err := bd.decodeBlock(&r, out.Cr, cbx, cby); err != nil {
				return nil, fmt.Errorf("mb (%d,%d) cr: %w", mbx, mby, err)
			}
			dcCr = bd.dcPred
		}
	}
	return out, nil
}

// decodeChecker holds one stream's decoders under test beside the oracle's
// reference frame, fed the same payloads in the same order.
type decodeChecker struct {
	p      Params
	dec    *Decoder
	idec   *IFrameDecoder
	out    *frame.YUV
	refPrv *frame.YUV // the oracle's last accepted frame
}

func newDecodeChecker(t testing.TB, p Params) *decodeChecker {
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	idec, err := NewIFrameDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	return &decodeChecker{p: p, dec: dec, idec: idec, out: frame.NewYUV(p.Width, p.Height)}
}

// step decodes data on Decoder.DecodeInto, IFrameDecoder.Decode and the
// oracle, and fails unless all three accept or reject it alike, with the
// same error message, and agree on every pixel.
func (c *decodeChecker) step(t testing.TB, label string, data []byte) {
	t.Helper()
	want, werr := refDecode(c.p, c.refPrv, data)
	gerr := c.dec.DecodeInto(data, c.out)
	if errString(gerr) != errString(werr) {
		t.Fatalf("%s: Decoder error %q, reference %q", label, errString(gerr), errString(werr))
	}
	if werr == nil {
		if !c.out.Equal(want) {
			t.Fatalf("%s: Decoder pixels differ from the reference", label)
		}
		c.refPrv = want
	}

	iwant, iwerr := want, werr
	if ft, err := PayloadFrameType(data); err == nil && ft == FrameP {
		if _, _, herr := readFrameHeader(new(bitstream.Reader), data); herr == nil {
			iwant, iwerr = nil, ErrNotIFrame
		}
	}
	igot, igerr := c.idec.Decode(data)
	if errString(igerr) != errString(iwerr) {
		t.Fatalf("%s: IFrameDecoder error %q, reference %q", label, errString(igerr), errString(iwerr))
	}
	if iwerr == nil && !igot.Equal(iwant) {
		t.Fatalf("%s: IFrameDecoder pixels differ from the reference", label)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// referenceStreams encodes FuzzDecode's seed stream: six frames, GOP 4, so
// payloads 0 and 4 are I-frames and the rest P-frames.
func referenceStreams(t testing.TB) (Params, [][]byte) {
	p := Params{Width: 32, Height: 24, Quality: 85, GOPSize: 4, Scenecut: 0}
	enc, err := NewEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for _, f := range testVideo(32, 24, 6, 2, 42) {
		ef, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, ef.Data)
	}
	return p, payloads
}

// panicPayload is the I-frame that made decodeBlock index its block at −1:
// a coded block whose first AC run is 2⁶⁴−2, followed by a level.
func panicPayload() []byte {
	w := bitstream.NewWriter(32)
	w.WriteBits(uint64(FrameI), 1)
	w.WriteBits(85, 7)
	w.WriteBit(1)        // coded
	w.WriteSE(0)         // DC delta
	w.WriteUE(1<<64 - 2) // run: int(run) == −2
	w.WriteSE(1)         // level
	w.WriteUE(eobMarker) // EOB
	return append([]byte(nil), w.Bytes()...)
}

// wideLevelPayload is an I-frame whose first AC level is 2³², which int32
// truncates to 0.
func wideLevelPayload() []byte {
	w := bitstream.NewWriter(32)
	w.WriteBits(uint64(FrameI), 1)
	w.WriteBits(85, 7)
	w.WriteBit(1)
	w.WriteSE(0)
	w.WriteUE(0)
	w.WriteSE(1 << 32)
	w.WriteUE(eobMarker)
	return append([]byte(nil), w.Bytes()...)
}

func TestDecodeRejectsOverlongRunAndWideLevel(t *testing.T) {
	p := Params{Width: 8, Height: 8, Quality: 85, GOPSize: 1}
	for name, data := range map[string][]byte{"run 2^64-2": panicPayload(), "level 2^32": wideLevelPayload()} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: decoder panicked: %v", name, r)
				}
			}()
			if _, err := DecodeIFrame(p, data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
			}
			c := newDecodeChecker(t, p)
			c.step(t, name, data)
		}()
	}
}

// TestDecodeMatchesReference replays whole streams, then the same streams
// with random bit flips and truncations, through the decoders and the
// oracle. The corrupted payloads exercise every error path, and a clean
// payload after each one catches state a rejected block left behind.
func TestDecodeMatchesReference(t *testing.T) {
	type stream struct {
		p        Params
		payloads [][]byte
	}
	p, payloads := referenceStreams(t)
	streams := []stream{{p, payloads}}
	for _, q := range []int{85, 30, 100} {
		np := Params{Width: 88, Height: 64, Quality: q, GOPSize: 3, Scenecut: 0}
		s := stream{p: np}
		for _, ef := range encodeAll(t, np, noisyVideo(88, 64, 7, 2, int64(q))) {
			s.payloads = append(s.payloads, ef.Data)
		}
		streams = append(streams, s)
	}
	rng := rand.New(rand.NewSource(27))
	for si, s := range streams {
		c := newDecodeChecker(t, s.p)
		for i, data := range s.payloads {
			c.step(t, fmt.Sprintf("stream %d frame %d", si, i), data)
		}
		for trial := 0; trial < 300; trial++ {
			i := rng.Intn(len(s.payloads))
			bad := append([]byte(nil), s.payloads[i]...)
			if trial%4 == 0 {
				bad = bad[:rng.Intn(len(bad))]
			}
			for k := rng.Intn(4); k >= 0 && len(bad) > 0; k-- {
				bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
			}
			c.step(t, fmt.Sprintf("stream %d trial %d (frame %d corrupted)", si, trial, i), bad)
			c.step(t, fmt.Sprintf("stream %d trial %d (frame %d clean)", si, trial, i), s.payloads[i])
		}
	}
}

// FuzzDecodeMatchesReference requires Decoder and IFrameDecoder to accept
// or reject any payload exactly as the oracle does, with the same error and
// the same pixels — after a real I-frame has left its levels in the block
// decoder, and again on a clean P- and I-frame after the payload.
func FuzzDecodeMatchesReference(f *testing.F) {
	p, payloads := referenceStreams(f)
	for _, s := range payloads {
		f.Add(s)
	}
	f.Add(panicPayload())
	f.Add(wideLevelPayload())
	f.Add(payloads[1][:len(payloads[1])/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newDecodeChecker(t, p)
		c.step(t, "I-frame before", payloads[0])
		c.step(t, "payload", data)
		c.step(t, "P-frame after", payloads[1])
		c.step(t, "I-frame after", payloads[4])
	})
}
