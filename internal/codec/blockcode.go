package codec

import (
	"fmt"
	"math/bits"

	"sieve/internal/bitstream"
	"sieve/internal/frame"
	"sieve/internal/transform"
)

// eobMarker terminates a block's AC run-level list. Legal runs are 0–62
// (positions 1..63 of the zig-zag scan), so 63 is unambiguous.
const eobMarker = 63

// fillPredConst fills a prediction block with the constant intra predictor.
func fillPredConst(dst *transform.Block) {
	for i := range dst {
		dst[i] = intraShift
	}
}

// blockSpan maps an 8-pixel run starting at coordinate b onto an axis of
// length n: positions [lo, hi) of the run lie inside [0, n), and lo == hi
// when none does.
func blockSpan(b, n int) (lo, hi int) {
	lo, hi = 0, transform.BlockSize
	if b < 0 {
		lo = -b
	}
	if b+hi > n {
		hi = n - b
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// clampCols returns, for the 8 columns starting at bx, the column of a
// w-wide plane each one reads under the border-extension rule (Plane.At's
// clamp): blocks that overhang an edge repeat the edge column.
func clampCols(bx, w int) (cols [transform.BlockSize]int) {
	for i := range cols {
		x := bx + i
		if x < 0 {
			x = 0
		} else if x >= w {
			x = w - 1
		}
		cols[i] = x
	}
	return cols
}

// clampedRow returns row y of p, clamped to the plane like Plane.At.
func clampedRow(p *frame.Plane, y int) []byte {
	if y < 0 {
		y = 0
	} else if y >= p.H {
		y = p.H - 1
	}
	return p.Row(y)
}

func inside(p *frame.Plane, bx, by int) bool {
	return bx >= 0 && by >= 0 && bx+transform.BlockSize <= p.W && by+transform.BlockSize <= p.H
}

// fillPredMC fills a prediction block with the motion-compensated reference
// pixels at (bx+mv.X, by+mv.Y) of an unpadded plane: the decoder's planes
// and the encoder's chroma. Interior blocks take fetchBlock; blocks whose
// reference window crosses a plane edge read clamped rows and columns (the
// codec's border-extension rule), producing identical values. The
// encoder's luma reference is padded (paddedPlane) and fetched with
// fetchBlock alone.
func fillPredMC(dst *transform.Block, ref *frame.Plane, bx, by int, mv MV) {
	sx, sy := bx+mv.X, by+mv.Y
	if inside(ref, sx, sy) {
		fetchBlock(dst, ref.Pix[sy*ref.Stride+sx:], ref.Stride)
		return
	}
	cols := clampCols(sx, ref.W)
	for y := 0; y < transform.BlockSize; y++ {
		row := clampedRow(ref, sy+y)
		d := dst[y*transform.BlockSize : y*transform.BlockSize+transform.BlockSize]
		for x, c := range cols {
			d[x] = int32(row[c])
		}
	}
}

// fetchBlock widens the 8×8 block of pixels whose rows start at src[0],
// stride bytes apart, into dst: fetchSSE2 on amd64, fetchBlockGo elsewhere.
//
//sieve:noalloc motion-compensated fetch of the encode and decode hot paths
func fetchBlock(dst *transform.Block, src []byte, stride int) {
	_ = src[7*stride+7]
	if haveSSE2 {
		fetchSSE2(dst, src, stride)
		return
	}
	fetchBlockGo(dst, src, stride)
}

// residualBlock stores the 8×8 block of pixels at src (rows stride apart)
// minus pred into dst: residualSSE2 on amd64, residualBlockGo elsewhere.
//
//sieve:noalloc residual of the encode hot path
func residualBlock(dst *transform.Block, src []byte, stride int, pred *transform.Block) {
	_ = src[7*stride+7]
	if haveSSE2 {
		residualSSE2(dst, src, stride, pred)
		return
	}
	residualBlockGo(dst, src, stride, pred)
}

// nonZeroMask returns the raster mask of lev's non-zero levels (bit i for
// lev[i]): nonZeroSSE2 on amd64, nonZeroMaskGo elsewhere.
//
//sieve:noalloc coded-block scan of the encode hot path
func nonZeroMask(lev *transform.Block) uint64 {
	if haveSSE2 {
		return nonZeroSSE2(lev)
	}
	return nonZeroMaskGo(lev)
}

// fetchBlockGo is the Go kernel of fetchBlock, and on amd64 the oracle its
// assembly is tested against.
//
//sieve:noalloc motion-compensated fetch of the encode and decode hot paths
func fetchBlockGo(dst *transform.Block, src []byte, stride int) {
	for y := 0; y < transform.BlockSize; y++ {
		row := src[y*stride : y*stride+transform.BlockSize]
		d := dst[y*transform.BlockSize : y*transform.BlockSize+transform.BlockSize]
		for x := range d {
			d[x] = int32(row[x])
		}
	}
}

// residualBlockGo is the Go kernel of residualBlock, and on amd64 the oracle
// its assembly is tested against.
//
//sieve:noalloc residual of the encode hot path
func residualBlockGo(dst *transform.Block, src []byte, stride int, pred *transform.Block) {
	for y := 0; y < transform.BlockSize; y++ {
		row := src[y*stride : y*stride+transform.BlockSize]
		d := dst[y*transform.BlockSize : y*transform.BlockSize+transform.BlockSize]
		pr := pred[y*transform.BlockSize : y*transform.BlockSize+transform.BlockSize]
		for x := range d {
			d[x] = int32(row[x]) - pr[x]
		}
	}
}

// nonZeroMaskGo is the Go kernel of nonZeroMask, and on amd64 the oracle its
// assembly is tested against. l|-l has its sign bit set exactly when l is
// not zero, MinInt32 included.
//
//sieve:noalloc coded-block scan of the encode hot path
func nonZeroMaskGo(lev *transform.Block) uint64 {
	var m uint64
	for i, l := range lev {
		m |= uint64(uint32(l|-l)>>31) << uint(i)
	}
	return m
}

// rasterToScan is the inverse of transform.ScanIndex: the scan position of
// each raster index.
var rasterToScan = func() (t [transform.BlockSize * transform.BlockSize]uint8) {
	for i := range t {
		t[transform.ScanIndex(i)] = uint8(i)
	}
	return t
}()

// blockCoder encodes and reconstructs 8×8 blocks against a prediction
// block, sharing one scratch set of transform blocks across calls. The
// caller fills pred (fillPredConst, fillPredMC, fetchBlock) before each
// encodeBlock — a flat scratch array instead of a per-pixel callback, so
// the hot loop is 64 array reads rather than 64 indirect calls.
type blockCoder struct {
	qz             *transform.Quantizer
	pred           transform.Block
	src, coef, lev transform.Block
	rec            transform.Block
	dcPred         int32
}

func newBlockCoder(quality int) *blockCoder {
	return &blockCoder{qz: transform.NewQuantizer(quality)}
}

// resetDC restarts DC prediction (call at the start of each plane).
func (bc *blockCoder) resetDC() { bc.dcPred = 0 }

// encodeBlock transforms and entropy-codes the 8×8 block of plane p at
// (bx, by) against the prediction in bc.pred, then writes the locally
// reconstructed pixels (prediction + dequantised residual) into recon.
func (bc *blockCoder) encodeBlock(w *bitstream.Writer, p, recon *frame.Plane, bx, by int) {
	if inside(p, bx, by) {
		residualBlock(&bc.src, p.Pix[by*p.Stride+bx:], p.Stride, &bc.pred)
	} else {
		cols := clampCols(bx, p.W)
		for y := 0; y < transform.BlockSize; y++ {
			row := clampedRow(p, by+y)
			s := bc.src[y*transform.BlockSize : y*transform.BlockSize+transform.BlockSize]
			pr := bc.pred[y*transform.BlockSize : y*transform.BlockSize+transform.BlockSize]
			for x, c := range cols {
				s[x] = int32(row[c]) - pr[x]
			}
		}
	}
	transform.Forward(&bc.src, &bc.coef)

	// Coded-block flag: all-zero blocks cost one bit and reconstruct to the
	// prediction alone.
	if !bc.qz.Quantize(&bc.coef, &bc.lev) {
		w.WriteBit(0)
		writePredBlock(recon, bx, by, &bc.pred)
		return
	}
	w.WriteBit(1)
	// The raster mask of the non-zero levels gives, one set bit at a time,
	// the scan-order mask the run/level list walks, and the rows and
	// columns the levels lie in, which the decoder records as it parses:
	// the inverse needs no scan of its own.
	var nz uint64
	var rows, cols uint
	for m := nonZeroMask(&bc.lev); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		nz |= 1 << rasterToScan[i&63]
		rows |= 1 << (i >> 3)
		cols |= 1 << (i & 7)
	}
	w.WriteSE(int64(bc.lev[0] - bc.dcPred))
	bc.dcPred = bc.lev[0]
	prev := 0
	for m := nz &^ 1; m != 0; m &= m - 1 {
		pos := bits.TrailingZeros64(m)
		w.WriteUE(uint64(pos - prev - 1))
		w.WriteSE(int64(bc.lev[transform.ScanIndex(pos)&63]))
		prev = pos
	}
	w.WriteUE(eobMarker)
	// Prediction + dequantised residual, exactly what the decoder will
	// compute, so encoder and decoder reference frames stay bit-identical
	// (no drift).
	bc.qz.InverseMasked(&bc.lev, rows, cols, &bc.rec)
	writeResidualBlock(recon, bx, by, &bc.pred, &bc.rec)
}

// writePredBlock stores clamp(pred) into the 8×8 block at (bx, by); pixels
// outside the plane are dropped, matching Plane.Set. On amd64 a block inside
// the plane is stored by storePredSSE2 (store_amd64.s); a block that
// overhangs an edge, and every block elsewhere, takes writePredBlockGo.
//
//sieve:noalloc reconstruct store of the encode and decode hot paths
func writePredBlock(dst *frame.Plane, bx, by int, pred *transform.Block) {
	if haveSSE2 && inside(dst, bx, by) {
		storePredSSE2(dst.Pix[by*dst.Stride+bx:], dst.Stride, pred)
		return
	}
	writePredBlockGo(dst, bx, by, pred)
}

// writeResidualBlock stores clamp(pred + residual) into the 8×8 block at
// (bx, by), with the same edge handling and the same kernel split as
// writePredBlock (storeResidualSSE2 for an in-plane block on amd64).
//
//sieve:noalloc reconstruct store of the encode and decode hot paths
func writeResidualBlock(dst *frame.Plane, bx, by int, pred, res *transform.Block) {
	if haveSSE2 && inside(dst, bx, by) {
		storeResidualSSE2(dst.Pix[by*dst.Stride+bx:], dst.Stride, pred, res)
		return
	}
	writeResidualBlockGo(dst, bx, by, pred, res)
}

// writePredBlockGo is the Go kernel of writePredBlock, and on amd64 the
// oracle its assembly is tested against.
//
//sieve:noalloc reconstruct store of the encode and decode hot paths
func writePredBlockGo(dst *frame.Plane, bx, by int, pred *transform.Block) {
	x0, x1 := blockSpan(bx, dst.W)
	y0, y1 := blockSpan(by, dst.H)
	if x0 == x1 {
		return
	}
	for y := y0; y < y1; y++ {
		row := dst.Pix[(by+y)*dst.Stride+bx+x0 : (by+y)*dst.Stride+bx+x1]
		pr := pred[y*transform.BlockSize+x0:][:len(row)]
		for x := range row {
			row[x] = frame.Clamp(int(pr[x]))
		}
	}
}

// writeResidualBlockGo is the Go kernel of writeResidualBlock, and on amd64
// the oracle its assembly is tested against.
//
//sieve:noalloc reconstruct store of the encode and decode hot paths
func writeResidualBlockGo(dst *frame.Plane, bx, by int, pred, res *transform.Block) {
	x0, x1 := blockSpan(bx, dst.W)
	y0, y1 := blockSpan(by, dst.H)
	if x0 == x1 {
		return
	}
	for y := y0; y < y1; y++ {
		row := dst.Pix[(by+y)*dst.Stride+bx+x0 : (by+y)*dst.Stride+bx+x1]
		pr := pred[y*transform.BlockSize+x0:][:len(row)]
		rs := res[y*transform.BlockSize+x0:][:len(row)]
		for x := range row {
			row[x] = frame.Clamp(int(pr[x] + rs[x]))
		}
	}
}

// blockDecoder mirrors blockCoder on the read side, with the same caller-
// filled prediction block.
type blockDecoder struct {
	qz   *transform.Quantizer
	pred transform.Block
	// lev holds the block's levels in raster order. It is zero except in
	// the rows named by dirty, which the previous coded block wrote and the
	// next one clears before it parses.
	lev    transform.Block
	dirty  uint
	rec    transform.Block
	dcPred int32
}

func newBlockDecoder(quality int) *blockDecoder {
	return &blockDecoder{qz: transform.NewQuantizer(quality)}
}

func (bd *blockDecoder) resetDC() { bd.dcPred = 0 }

// decodeBlock reads one coded block and writes prediction + residual pixels
// into dst at (bx, by), predicting from bd.pred. Each level goes straight to
// its raster position, and the rows and columns it lands in are recorded as
// it goes, so the inverse transform needs no scan of its own.
//
//sieve:noalloc leaf of the decode hot path
func (bd *blockDecoder) decodeBlock(r *bitstream.Reader, dst *frame.Plane, bx, by int) error {
	coded, err := r.ReadBit()
	if err != nil {
		return fmt.Errorf("coded-block flag: %w", err)
	}
	if coded == 0 {
		writePredBlock(dst, bx, by, &bd.pred)
		return nil
	}
	for m := bd.dirty; m != 0; m &= m - 1 {
		v := bits.TrailingZeros(m) * transform.BlockSize
		clear(bd.lev[v : v+transform.BlockSize])
	}
	bd.dirty = 1<<transform.BlockSize - 1 // until this block's rows are known
	dcDelta, err := r.ReadSE()
	if err != nil {
		return fmt.Errorf("dc delta: %w", err)
	}
	bd.dcPred += int32(dcDelta)
	bd.lev[0] = bd.dcPred
	var rows, cols uint
	if bd.dcPred != 0 {
		rows, cols = 1, 1
	}
	pos := uint64(1)
	for {
		run, err := r.ReadUE()
		if err != nil {
			return fmt.Errorf("ac run: %w", err)
		}
		if run == eobMarker {
			break
		}
		if run > eobMarker-1 {
			return fmt.Errorf("%w: AC run %d", ErrCorrupt, run)
		}
		pos += run
		if pos >= uint64(len(bd.lev)) {
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
		i := transform.ScanIndex(int(pos & 63))
		bd.lev[i] = int32(level)
		rows |= 1 << (i >> 3)
		cols |= 1 << (i & 7)
		pos++
	}
	bd.dirty = rows
	bd.qz.InverseMasked(&bd.lev, rows, cols, &bd.rec)
	writeResidualBlock(dst, bx, by, &bd.pred, &bd.rec)
	return nil
}
