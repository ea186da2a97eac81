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
	rows, cols, err := bd.parse(r)
	if err != nil {
		return err
	}
	bd.dirty = rows
	bd.qz.InverseMasked(&bd.lev, rows, cols, &bd.rec)
	writeResidualBlock(dst, bx, by, &bd.pred, &bd.rec)
	return nil
}

// pairBits is the width of the window prefix pairTable is indexed by.
const pairBits = 12

// pairTable decodes, in one lookup on the window's top pairBits bits, an AC
// (run, level) pair whose two Exp-Golomb codes together fit in those bits:
// entry = length | run<<8 | level<<16 (level signed, in the top half). An
// entry is 0 unless its bits start with such a pair with a run of at most 62
// and a non-zero level; the EOB code (13 bits) never fits. The table is
// built from the writer's side of the code — every pair that fits, its
// prefix filled for every value of the bits after it — and
// TestPairTableMatchesReader checks it against ReadUE and ReadSE.
var pairTable = func() (t [1 << pairBits]uint32) {
	codeLen := func(x uint64) uint { return 2*uint(bits.Len64(x)) - 1 } // code of x−1
	for run := uint64(0); run < eobMarker; run++ {
		// A level whose code fits is within ±31 (an 11-bit code).
		for level := int64(-1 << (pairBits / 2)); level <= 1<<(pairBits/2); level++ {
			if level == 0 {
				continue
			}
			u := uint64(2*level - 1) // the code number WriteSE gives level
			if level < 0 {
				u = uint64(-2 * level)
			}
			nr, nl := codeLen(run+1), codeLen(u+1)
			n := nr + nl
			if n > pairBits {
				continue
			}
			code := (run+1)<<nl | (u + 1)
			e := uint32(n) | uint32(run)<<8 | uint32(level)<<16
			for low := uint64(0); low < 1<<(pairBits-n); low++ {
				t[code<<(pairBits-n)|low] = e
			}
		}
	}
	return t
}()

// refillBelow is how few window bits make the parse, when a table lookup
// misses, hand the window back and peek again. Refilled, the window holds
// at least 57 bits; a pair with a run up to 62 and a level below 2¹³ is at
// most 38.
const refillBelow = 40

// seValue maps an Exp-Golomb code number to its signed value, as
// Reader.ReadSE does.
func seValue(u uint64) int64 {
	even, odd := -int64(u>>1), int64((u+1)>>1)
	return even ^ (even^odd)&-int64(u&1)
}

// parse reads a coded block's DC delta and AC run-level list into bd.lev
// and returns the rows and columns its levels lie in. It decodes off a
// local copy of the reader's window (Peek), refilled when a lookup misses
// with fewer than refillBelow bits left: each AC pair that fits in pairBits
// bits in one pairTable lookup, other codes — the DC, the EOB, longer
// pairs — from their leading zeros in one shift each. Whatever that cannot
// take — a code longer than the window holds, one the end of the buffer
// cuts, and every code that is an error — it hands back: it consumes the
// codes it decoded and finishes the block in parseSlow or parseACSlow from
// the code it stopped at, so values, errors and BitsRead are those of the
// parse by ReadUE and ReadSE.
//
//sieve:noalloc leaf of the decode hot path
func (bd *blockDecoder) parse(r *bitstream.Reader) (rows, cols uint, err error) {
	w, n := r.Peek()
	left := n
	k := 2*uint(bits.LeadingZeros64(w)) + 1
	if k > left {
		return bd.parseSlow(r)
	}
	bd.dcPred += int32(seValue(w>>(64-k) - 1))
	w <<= k
	left -= k
	bd.lev[0] = bd.dcPred
	if bd.dcPred != 0 {
		rows, cols = 1, 1
	}
	pos := uint64(1)
	for {
		e := pairTable[w>>(64-pairBits)]
		if l := uint(e & 0xFF); l-1 < left { // a pair (l > 0) the window holds
			if p := pos + uint64(e>>8&0xFF); p < uint64(len(bd.lev)) {
				i := uint(transform.ScanIndex(int(p))) & 63
				bd.lev[i] = int32(e) >> 16
				rows |= 1 << (i >> 3)
				cols |= 1 << (i & 7)
				w <<= l & 63
				left -= l
				pos = p + 1
				continue
			}
		}
		if left < refillBelow && left != n {
			r.Consume(n - left)
			w, n = r.Peek()
			left = n
			continue
		}
		k := 2*uint(bits.LeadingZeros64(w)) + 1
		if k > left {
			break
		}
		run := w>>(64-k) - 1
		if run == eobMarker {
			r.Consume(n - left + k)
			return rows, cols, nil
		}
		if run > eobMarker-1 || pos+run >= uint64(len(bd.lev)) {
			break
		}
		lw, ll := w<<k, left-k
		kl := 2*uint(bits.LeadingZeros64(lw)) + 1
		if kl > ll || lw>>63 == 1 { // cut off, or a zero level
			break
		}
		// kl <= 63, so the code number is below 2³² and the level fits int32.
		pos += run
		i := uint(transform.ScanIndex(int(pos))) & 63
		bd.lev[i] = int32(seValue(lw>>(64-kl) - 1))
		rows |= 1 << (i >> 3)
		cols |= 1 << (i & 7)
		w = lw << kl
		left = ll - kl
		pos++
	}
	r.Consume(n - left)
	return bd.parseACSlow(r, pos, rows, cols)
}

// parseSlow is parse from the DC code on, one ReadUE or ReadSE call per code.
func (bd *blockDecoder) parseSlow(r *bitstream.Reader) (rows, cols uint, err error) {
	dcDelta, err := r.ReadSE()
	if err != nil {
		return 0, 0, fmt.Errorf("dc delta: %w", err)
	}
	bd.dcPred += int32(dcDelta)
	bd.lev[0] = bd.dcPred
	if bd.dcPred != 0 {
		rows, cols = 1, 1
	}
	return bd.parseACSlow(r, 1, rows, cols)
}

// parseACSlow is parse from the AC pair at scan position pos on, one ReadUE
// or ReadSE call per code; rows and cols are those of the levels before it.
func (bd *blockDecoder) parseACSlow(r *bitstream.Reader, pos uint64, rows, cols uint) (uint, uint, error) {
	for {
		run, err := r.ReadUE()
		if err != nil {
			return 0, 0, fmt.Errorf("ac run: %w", err)
		}
		if run == eobMarker {
			return rows, cols, nil
		}
		if run > eobMarker-1 {
			return 0, 0, fmt.Errorf("%w: AC run %d", ErrCorrupt, run)
		}
		pos += run
		if pos >= uint64(len(bd.lev)) {
			return 0, 0, fmt.Errorf("%w: run-level overflow at position %d", ErrCorrupt, pos)
		}
		level, err := r.ReadSE()
		if err != nil {
			return 0, 0, fmt.Errorf("ac level: %w", err)
		}
		if level == 0 {
			return 0, 0, fmt.Errorf("%w: zero AC level", ErrCorrupt)
		}
		if level != int64(int32(level)) {
			return 0, 0, fmt.Errorf("%w: AC level %d out of range", ErrCorrupt, level)
		}
		i := transform.ScanIndex(int(pos & 63))
		bd.lev[i] = int32(level)
		rows |= 1 << (i >> 3)
		cols |= 1 << (i & 7)
		pos++
	}
}
