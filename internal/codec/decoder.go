package codec

import (
	"fmt"

	"sieve/internal/bitstream"
	"sieve/internal/frame"
	"sieve/internal/transform"
)

// Decoder decompresses a stream produced by Encoder with the same Params.
// Not safe for concurrent use.
//
// Like the encoder, the decoder owns two reference frames and ping-pongs
// between them: every frame is decoded into the scratch buffer first and the
// pointers swap only on success, so a corrupt payload never damages the
// reference and a P-frame retry against the same reference stays possible.
type Decoder struct {
	p       Params
	recon   *frame.YUV // reconstruction of the last successfully decoded frame
	scratch *frame.YUV // decode target; swapped with recon on success
	hasRef  bool
	bd      *blockDecoder
	r       bitstream.Reader // reused per frame to keep DecodeInto allocation-free
}

// NewDecoder validates p and returns a ready decoder.
func NewDecoder(p Params) (*Decoder, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	return &Decoder{
		p:       p,
		recon:   frame.NewYUV(p.Width, p.Height),
		scratch: frame.NewYUV(p.Width, p.Height),
	}, nil
}

// Decode decompresses the next frame in stream order. P-frames require that
// the preceding frame was decoded by this Decoder. The returned frame is
// freshly allocated and owned by the caller; the allocation-free hot path
// is DecodeInto.
func (d *Decoder) Decode(data []byte) (*frame.YUV, error) {
	out := frame.NewYUV(d.p.Width, d.p.Height)
	if err := d.DecodeInto(data, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto decompresses the next frame in stream order into out, which
// must have the stream geometry. In steady state it performs zero heap
// allocations: the frame is reconstructed in the decoder's own reference
// buffers and copied once into out. out never aliases decoder state, so the
// caller may freely reuse or mutate it between calls; mutating out does not
// perturb subsequent P-frame decoding. The decoder keeps no reference to
// data once DecodeInto returns.
//
//sieve:noalloc steady-state P-frame path pinned to 0 allocs/op by alloc_test.go
func (d *Decoder) DecodeInto(data []byte, out *frame.YUV) error {
	if out == nil {
		return fmt.Errorf("codec: DecodeInto nil output frame")
	}
	if out.W != d.p.Width || out.H != d.p.Height {
		return fmt.Errorf("codec: output frame %dx%d does not match stream %dx%d",
			out.W, out.H, d.p.Width, d.p.Height)
	}
	err := d.decodeFrame(data)
	d.r.Reset(nil) // a long-lived decoder must not keep the caller's payload alive
	if err != nil {
		return err
	}
	out.Y.CopyFrom(d.recon.Y)
	out.Cb.CopyFrom(d.recon.Cb)
	out.Cr.CopyFrom(d.recon.Cr)
	return nil
}

// decodeFrame decodes one payload into scratch and, on success, makes it
// the reference.
//
//sieve:noalloc leaf of the decode hot path
func (d *Decoder) decodeFrame(data []byte) error {
	ft, quality, err := readFrameHeader(&d.r, data)
	if err != nil {
		return err
	}
	if d.bd == nil || d.bd.qz.Quality() != quality {
		d.bd = newBlockDecoder(quality)
	}
	switch ft {
	case FrameI:
		if err := decodeIntraInto(&d.r, d.bd, d.scratch); err != nil {
			return err
		}
	case FrameP:
		if !d.hasRef {
			return ErrNoRef
		}
		if err := d.decodeInterInto(&d.r, d.recon, d.scratch); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: frame type %d", ErrCorrupt, ft)
	}
	d.recon, d.scratch = d.scratch, d.recon
	d.hasRef = true
	return nil
}

// Reset drops the reference frame (e.g. before seeking to an I-frame).
func (d *Decoder) Reset() { d.hasRef = false }

// DecodeIFrame decodes a single I-frame payload independently of any stream
// state — the "decompress like a still JPEG" path the SiEVE edge engine uses
// after the I-frame seeker. Returns ErrNotIFrame for P-frame payloads.
func DecodeIFrame(p Params, data []byte) (*frame.YUV, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	var r bitstream.Reader
	ft, quality, err := readFrameHeader(&r, data)
	if err != nil {
		return nil, err
	}
	if ft != FrameI {
		return nil, ErrNotIFrame
	}
	out := frame.NewYUV(p.Width, p.Height)
	if err := decodeIntraInto(&r, newBlockDecoder(quality), out); err != nil {
		return nil, err
	}
	return out, nil
}

// IFrameDecoder decodes independent I-frame payloads like DecodeIFrame but
// with reused buffers: the output frame, block decoder and bitstream reader
// all persist across calls, so a scan that decodes the I-frames of a stored
// stream allocates nothing in steady state. (The encoding side has no need
// of it: Encoder.Recon already holds the same pixels.) Not safe for
// concurrent use.
type IFrameDecoder struct {
	p   Params
	r   bitstream.Reader
	bd  *blockDecoder
	out *frame.YUV
}

// NewIFrameDecoder validates p and returns a ready decoder.
func NewIFrameDecoder(p Params) (*IFrameDecoder, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	return &IFrameDecoder{p: p, out: frame.NewYUV(p.Width, p.Height)}, nil
}

// Decode decodes one I-frame payload into the decoder's internal frame and
// returns it. The frame is valid until the next Decode call; callers that
// need to keep it must Clone. Returns ErrNotIFrame for P-frame payloads.
// The decoder keeps no reference to data once Decode returns.
func (d *IFrameDecoder) Decode(data []byte) (*frame.YUV, error) {
	err := d.decode(data)
	d.r.Reset(nil)
	if err != nil {
		return nil, err
	}
	return d.out, nil
}

func (d *IFrameDecoder) decode(data []byte) error {
	ft, quality, err := readFrameHeader(&d.r, data)
	if err != nil {
		return err
	}
	if ft != FrameI {
		return ErrNotIFrame
	}
	if d.bd == nil || d.bd.qz.Quality() != quality {
		d.bd = newBlockDecoder(quality)
	}
	return decodeIntraInto(&d.r, d.bd, d.out)
}

// PayloadFrameType peeks at a payload's frame-type bit without decoding.
func PayloadFrameType(data []byte) (FrameType, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	return FrameType(data[0] >> 7), nil
}

// readFrameHeader rewinds r onto data and consumes the one-byte header.
//
//sieve:noalloc leaf of the decode hot path
func readFrameHeader(r *bitstream.Reader, data []byte) (FrameType, int, error) {
	if len(data) < 1 {
		return 0, 0, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	r.Reset(data)
	ftBit, err := r.ReadBits(1)
	if err != nil {
		return 0, 0, err
	}
	q, err := r.ReadBits(7)
	if err != nil {
		return 0, 0, err
	}
	if q < 1 || q > 100 {
		return 0, 0, fmt.Errorf("%w: quality %d", ErrCorrupt, q)
	}
	return FrameType(ftBit), int(q), nil
}

//sieve:noalloc leaf of the decode hot path
func decodeIntraInto(r *bitstream.Reader, bd *blockDecoder, out *frame.YUV) error {
	fillPredConst(&bd.pred)
	for _, pl := range [3]*frame.Plane{out.Y, out.Cb, out.Cr} {
		bd.resetDC()
		for by := 0; by < pl.H; by += transform.BlockSize {
			for bx := 0; bx < pl.W; bx += transform.BlockSize {
				if err := bd.decodeBlock(r, pl, bx, by); err != nil {
					return fmt.Errorf("intra block (%d,%d): %w", bx, by, err)
				}
			}
		}
	}
	return nil
}

// decodeInterInto decodes one P-frame payload, predicting from prev and
// writing the reconstruction into dst (every plane pixel is written).
//
//sieve:noalloc leaf of the decode hot path
func (d *Decoder) decodeInterInto(r *bitstream.Reader, prev, dst *frame.YUV) error {
	dcY, dcCb, dcCr := int32(0), int32(0), int32(0)
	pred := MV{}
	for mby := 0; mby < d.p.Height; mby += mbSize {
		pred = MV{}
		for mbx := 0; mbx < d.p.Width; mbx += mbSize {
			skip, err := r.ReadBit()
			if err != nil {
				return fmt.Errorf("mb (%d,%d) skip flag: %w", mbx, mby, err)
			}
			if skip == 1 {
				copyBlock(dst.Y, prev.Y, mbx, mby, mbSize)
				copyBlock(dst.Cb, prev.Cb, mbx/2, mby/2, mbSize/2)
				copyBlock(dst.Cr, prev.Cr, mbx/2, mby/2, mbSize/2)
				pred = MV{}
				continue
			}
			dx, err := r.ReadSE()
			if err != nil {
				return fmt.Errorf("mb (%d,%d) mv.x: %w", mbx, mby, err)
			}
			dy, err := r.ReadSE()
			if err != nil {
				return fmt.Errorf("mb (%d,%d) mv.y: %w", mbx, mby, err)
			}
			mv := MV{pred.X + int(dx), pred.Y + int(dy)}
			pred = mv

			d.bd.dcPred = dcY
			for sub := 0; sub < 4; sub++ {
				bx := mbx + (sub%2)*transform.BlockSize
				by := mby + (sub/2)*transform.BlockSize
				fillPredMC(&d.bd.pred, prev.Y, bx, by, mv)
				if err := d.bd.decodeBlock(r, dst.Y, bx, by); err != nil {
					return fmt.Errorf("mb (%d,%d) luma: %w", mbx, mby, err)
				}
			}
			dcY = d.bd.dcPred
			cmv := MV{mv.X / 2, mv.Y / 2}
			cbx, cby := mbx/2, mby/2
			d.bd.dcPred = dcCb
			fillPredMC(&d.bd.pred, prev.Cb, cbx, cby, cmv)
			if err := d.bd.decodeBlock(r, dst.Cb, cbx, cby); err != nil {
				return fmt.Errorf("mb (%d,%d) cb: %w", mbx, mby, err)
			}
			dcCb = d.bd.dcPred
			d.bd.dcPred = dcCr
			fillPredMC(&d.bd.pred, prev.Cr, cbx, cby, cmv)
			if err := d.bd.decodeBlock(r, dst.Cr, cbx, cby); err != nil {
				return fmt.Errorf("mb (%d,%d) cr: %w", mbx, mby, err)
			}
			dcCr = d.bd.dcPred
		}
	}
	return nil
}
