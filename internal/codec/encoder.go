package codec

import (
	"fmt"

	"sieve/internal/bitstream"
	"sieve/internal/frame"
	"sieve/internal/transform"
)

// intraShift is the constant prediction used for intra blocks.
const intraShift = 128

// Encoder compresses a sequence of frames. It is not safe for concurrent
// use; run one Encoder per stream.
//
// The encoder owns two reference frames and ping-pongs between them: recon
// always holds the reconstruction of the last encoded frame (what the
// decoder will see), and scratch receives the next P-frame's reconstruction
// while recon serves as its prediction source. Swapping the two pointers
// after each P-frame replaces the three full-plane clones per frame the
// naive in-place scheme needs, so steady-state encoding allocates nothing.
type Encoder struct {
	p        Params
	analyzer *CostAnalyzer // nil when Scenecut is 0: nothing reads the costs
	recon    *reference    // reconstruction of the last encoded frame
	scratch  *reference    // ping-pong partner for P-frame reconstruction
	num      int           // next frame number
	sinceI   int           // frames since last I-frame (0 right after an I)
	forceI   bool          // next EncodeInto must place an I-frame (see ForceNextI)
	bc       *blockCoder
	w        *bitstream.Writer
	seen     *visited              // motion-search scratch, sized for searchRange
	mb       [mbSize * mbSize]byte // a macroblock that overhangs the frame, clamped (loadBlock)
}

// reference is one of the encoder's reference frames. Its luma plane lies
// inside a replicated border sized for the stream's search range
// (paddedPlane), extended once the frame is reconstructed, so motion search
// and luma motion compensation never clamp; its chroma planes are plain.
type reference struct {
	frame.YUV // Y is &luma.Plane
	luma      *paddedPlane
}

func newReference(p Params) *reference {
	r := &reference{luma: newPaddedPlane(p.Width, p.Height, mbSize, searchRange)}
	r.YUV = frame.YUV{
		Y:  &r.luma.Plane,
		Cb: frame.NewPlane(p.Width/2, p.Height/2),
		Cr: frame.NewPlane(p.Width/2, p.Height/2),
		W:  p.Width, H: p.Height,
	}
	return r
}

// NewEncoder validates p and returns a ready encoder.
func NewEncoder(p Params) (*Encoder, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	e := &Encoder{
		p:       p,
		recon:   newReference(p),
		scratch: newReference(p),
		bc:      newBlockCoder(p.Quality),
		w:       bitstream.NewWriter(p.Width * p.Height / 4),
		seen:    newVisited(searchRange),
	}
	if p.Scenecut > 0 {
		e.analyzer = NewCostAnalyzer()
	}
	return e, nil
}

// Params returns the encoder's normalised parameters.
func (e *Encoder) Params() Params { return e.p }

// Recon returns the reconstruction of the last encoded frame: the pixels
// every decoder of the stream produces for it, byte for byte, and the
// reference the next P-frame predicts from. The frame is the encoder's own
// buffer, not a copy, so it is read-only and valid only until the next
// encode; a caller that writes to it corrupts every later P-frame. Before
// the first encode it is all zeros.
//
// Its luma plane has Stride > W: the encoder keeps that plane inside a
// replicated border for motion search. Pix ends at the last pixel of row
// H−1, so a reader must address pixels through Stride (Row, At), and none
// can reach the border.
//
//sieve:noalloc view accessor of the encode hot path
func (e *Encoder) Recon() *frame.YUV { return &e.recon.YUV }

// Encode compresses the next frame, deciding its type via the GOP/scenecut
// rule. The input frame is not retained. The returned EncodedFrame and its
// Data are freshly allocated and owned by the caller; the allocation-free
// hot path is EncodeInto.
func (e *Encoder) Encode(f *frame.YUV) (*EncodedFrame, error) {
	ef := &EncodedFrame{}
	if err := e.EncodeInto(f, ef); err != nil {
		return nil, err
	}
	return ef, nil
}

// EncodeInto compresses the next frame into ef, reusing ef.Data's capacity.
// In steady state (ef reused across calls, geometry fixed) it performs zero
// heap allocations: the payload is built in the encoder's bitstream writer
// and copied once into ef.Data. ef.Data remains caller-owned; it is only
// rewritten by the caller's next EncodeInto with the same ef.
//
//sieve:noalloc steady-state P-frame path pinned to 0 allocs/op by alloc_test.go
func (e *Encoder) EncodeInto(f *frame.YUV, ef *EncodedFrame) error {
	cost := e.analyze(f)
	dist := 0
	if e.num > 0 {
		dist = e.sinceI + 1 // distance this frame would have from last I
	}
	ft := DecideType(cost, dist, e.p)
	if e.forceI {
		ft = FrameI
		e.forceI = false
	}
	return e.encodeAs(f, ft, cost, ef)
}

// ForceNextI makes the next EncodeInto place an I-frame regardless of the
// GOP/scenecut decision, resetting the GOP distance as any I-frame does.
// Stream ingest uses it at discontinuities: a frame that follows a gap
// (reconnect, shed frames) must not predict from a reference the stored
// stream's decoder never saw. The flag is consumed by the next EncodeInto
// and has no effect on any later frame.
func (e *Encoder) ForceNextI() { e.forceI = true }

// EncodeForced compresses the next frame with a caller-chosen type,
// bypassing the decision rule (frame 0 must still be an I-frame).
func (e *Encoder) EncodeForced(f *frame.YUV, ft FrameType) (*EncodedFrame, error) {
	cost := e.analyze(f)
	if e.num == 0 && ft != FrameI {
		return nil, fmt.Errorf("codec: frame 0 must be an I-frame")
	}
	ef := &EncodedFrame{}
	if err := e.encodeAs(f, ft, cost, ef); err != nil {
		return nil, err
	}
	return ef, nil
}

// analyze returns f's scenecut costs, or zero costs without running the
// analysis when Scenecut is 0: DecideType reads the costs only at a
// positive threshold, so they would decide nothing.
//
//sieve:noalloc per-frame cost scan, skipped when nothing reads it
func (e *Encoder) analyze(f *frame.YUV) Cost {
	if e.analyzer == nil {
		return Cost{}
	}
	return e.analyzer.Analyze(f)
}

//sieve:noalloc shared by EncodeInto; error branches are cold
func (e *Encoder) encodeAs(f *frame.YUV, ft FrameType, cost Cost, ef *EncodedFrame) error {
	if f.W != e.p.Width || f.H != e.p.Height {
		return fmt.Errorf("codec: frame %dx%d does not match stream %dx%d",
			f.W, f.H, e.p.Width, e.p.Height)
	}
	if e.num == 0 {
		ft = FrameI
	}
	e.w.Reset()
	// One-byte header: frame type in the top bit, quality in the low 7.
	e.w.WriteBits(uint64(ft)&1, 1)
	e.w.WriteBits(uint64(e.p.Quality), 7)

	switch ft {
	case FrameI:
		e.encodeIntra(f)
		e.sinceI = 0
	case FrameP:
		e.encodeInter(f)
		e.sinceI++
	default:
		return fmt.Errorf("codec: unknown frame type %v", ft)
	}

	ef.Number = e.num
	ef.Type = ft
	ef.Data = append(ef.Data[:0], e.w.Bytes()...)
	ef.IntraCost = cost.Intra
	ef.InterCost = cost.Inter
	e.num++
	return nil
}

//sieve:noalloc leaf of the encode hot path
func (e *Encoder) encodeIntra(f *frame.YUV) {
	fillPredConst(&e.bc.pred)
	for _, pl := range [3]struct{ src, rec *frame.Plane }{
		{f.Y, e.recon.Y}, {f.Cb, e.recon.Cb}, {f.Cr, e.recon.Cr},
	} {
		e.bc.resetDC()
		for by := 0; by < pl.src.H; by += transform.BlockSize {
			for bx := 0; bx < pl.src.W; bx += transform.BlockSize {
				e.bc.encodeBlock(e.w, pl.src, pl.rec, bx, by)
			}
		}
	}
	e.recon.luma.extend()
}

//sieve:noalloc leaf of the encode hot path
func (e *Encoder) encodeInter(f *frame.YUV) {
	// P-frames predict only from the previous frame's reconstruction, so the
	// macroblock loop reads ref (the last recon) and writes dst (the other
	// ping-pong buffer); the final swap makes dst the new reference. Every
	// plane pixel of dst is written exactly once — by a skip copy or a block
	// reconstruction — so no clearing is needed; dst's luma border is
	// extended once the frame is complete.
	ref, dst := e.recon, e.scratch

	e.bc.resetDC()
	dcY, dcCb, dcCr := int32(0), int32(0), int32(0)
	pred := MV{}
	blk := searchBlock{ref: ref.luma, size: mbSize}
	for mby := 0; mby < f.H; mby += mbSize {
		pred = MV{}
		for mbx := 0; mbx < f.W; mbx += mbSize {
			blk.x, blk.y = mbx, mby
			blk.cur, blk.stride = loadBlock(f.Y, mbx, mby, mbSize, e.mb[:])
			mv, sad := diamondSearch(&blk, pred, e.seen)
			if mv == (MV{}) && sad < e.p.SkipSAD {
				// Skip: decoder copies the co-located block.
				e.w.WriteBit(1)
				copyBlock(dst.Y, ref.Y, mbx, mby, mbSize)
				copyBlock(dst.Cb, ref.Cb, mbx/2, mby/2, mbSize/2)
				copyBlock(dst.Cr, ref.Cr, mbx/2, mby/2, mbSize/2)
				pred = MV{}
				continue
			}
			e.w.WriteBit(0)
			e.w.WriteSE(int64(mv.X - pred.X))
			e.w.WriteSE(int64(mv.Y - pred.Y))
			pred = mv

			// Four 8×8 luma blocks of this macroblock, fetched from the
			// padded reference in place.
			e.bc.dcPred = dcY
			for sub := 0; sub < 4; sub++ {
				bx := mbx + (sub%2)*transform.BlockSize
				by := mby + (sub/2)*transform.BlockSize
				fetchBlock(&e.bc.pred, ref.luma.from(bx+mv.X, by+mv.Y), ref.luma.Stride)
				e.bc.encodeBlock(e.w, f.Y, dst.Y, bx, by)
			}
			dcY = e.bc.dcPred
			// One 8×8 block per chroma plane, MV halved.
			cmv := MV{mv.X / 2, mv.Y / 2}
			cbx, cby := mbx/2, mby/2
			e.bc.dcPred = dcCb
			fillPredMC(&e.bc.pred, ref.Cb, cbx, cby, cmv)
			e.bc.encodeBlock(e.w, f.Cb, dst.Cb, cbx, cby)
			dcCb = e.bc.dcPred
			e.bc.dcPred = dcCr
			fillPredMC(&e.bc.pred, ref.Cr, cbx, cby, cmv)
			e.bc.encodeBlock(e.w, f.Cr, dst.Cr, cbx, cby)
			dcCr = e.bc.dcPred
		}
	}
	dst.luma.extend()
	e.recon, e.scratch = dst, ref
}

// copyBlock copies the size×size block at (bx, by) of src to the same place
// in dst (a skipped macroblock); the part of a block that overhangs the
// right or bottom edge has no pixels to copy.
//
//sieve:noalloc skip-macroblock inner loop
func copyBlock(dst, src *frame.Plane, bx, by, size int) {
	x1, y1 := min(bx+size, dst.W), min(by+size, dst.H)
	if bx >= x1 {
		return
	}
	for y := by; y < y1; y++ {
		copy(dst.Pix[y*dst.Stride+bx:y*dst.Stride+x1], src.Pix[y*src.Stride+bx:y*src.Stride+x1])
	}
}
