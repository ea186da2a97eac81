// Package codec implements the SiEVE hybrid video codec: a block-based
// encoder/decoder in the style of H.264 baseline, with intra-coded I-frames
// (JPEG-like: 8×8 DCT + quantisation + Exp-Golomb run-level entropy coding)
// and motion-compensated P-frames (diamond-search motion estimation over
// 16×16 macroblocks, coded residuals, skip mode).
//
// The encoder exposes the two knobs the SiEVE paper tunes:
//
//   - Scenecut threshold (0–400, x264 convention): a frame becomes an
//     I-frame when its motion-compensated inter cost approaches its intra
//     cost — i.e. when prediction from the previous frame stops paying off,
//     which is exactly when new content (an object) enters the scene.
//     Higher values make the encoder more sensitive to small motion.
//   - GOP size: the maximum number of frames between two I-frames.
//
// The scenecut decision runs on half-resolution *original* frames (like
// x264's lookahead), which makes it independent of where previous I-frames
// landed. The offline tuner exploits this to replay I-frame placement for
// many parameter configurations from a single analysis pass.
package codec

import (
	"errors"
	"fmt"
	"math"
)

// FrameType distinguishes intra-coded key frames from predicted frames.
type FrameType uint8

const (
	// FrameI is an intra-coded key frame, decodable independently.
	FrameI FrameType = iota
	// FrameP is an inter-coded frame predicted from the previous frame.
	FrameP
)

// String returns "I" or "P".
func (t FrameType) String() string {
	switch t {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// MaxScenecut is the largest meaningful scenecut threshold (x264 convention;
// at 400 every frame with any motion becomes an I-frame).
const MaxScenecut = 400

// Params configures an encoder/decoder pair. Width and Height must be even
// and positive; the macroblock grid internally extends past non-multiple-of-16
// edges with border replication.
type Params struct {
	Width, Height int
	// Quality is the quantiser quality in [1,100]; 85 is visually clean.
	Quality int
	// GOPSize forces an I-frame whenever this many frames have elapsed
	// since the last one. Must be >= 1.
	GOPSize int
	// Scenecut in [0,400]; 0 disables scenecut detection entirely.
	Scenecut float64
	// MinGOP suppresses scenecut I-frames closer than this to the previous
	// I-frame (x264 min-keyint). 0 or 1 means no suppression.
	MinGOP int
	// SkipSAD is the macroblock SAD below which a zero-motion macroblock
	// is coded as a skip (default 512 ≈ 2 grey levels per pixel).
	SkipSAD int
}

// Defaults returns params mirroring the paper's "default encoding":
// scenecut 40, GOP 250 (the x264 defaults called out in Section IV).
func Defaults(w, h int) Params {
	return Params{
		Width:    w,
		Height:   h,
		Quality:  85,
		GOPSize:  250,
		Scenecut: 40,
	}
}

// normalize fills zero-valued optional fields and validates the rest.
func (p *Params) normalize() error {
	if p.Width <= 0 || p.Height <= 0 {
		return fmt.Errorf("codec: invalid dimensions %dx%d", p.Width, p.Height)
	}
	if p.Width%2 != 0 || p.Height%2 != 0 {
		return fmt.Errorf("codec: dimensions %dx%d must be even", p.Width, p.Height)
	}
	if p.Quality == 0 {
		p.Quality = 85
	}
	if p.Quality < 1 || p.Quality > 100 {
		return fmt.Errorf("codec: quality %d out of [1,100]", p.Quality)
	}
	if p.GOPSize < 1 {
		return fmt.Errorf("codec: GOP size %d must be >= 1", p.GOPSize)
	}
	// One range test, not two out-of-range tests: NaN fails every
	// comparison, so only this form refuses it.
	if !(p.Scenecut >= 0 && p.Scenecut <= MaxScenecut) {
		return fmt.Errorf("codec: scenecut %.1f out of [0,%d]", p.Scenecut, MaxScenecut)
	}
	if p.SkipSAD == 0 {
		p.SkipSAD = 512
	}
	if p.MinGOP < 1 {
		p.MinGOP = 1
	}
	return nil
}

// EncodedFrame is one compressed frame plus the side information the SiEVE
// tuner and seeker rely on: its type, and the analysis costs that drove the
// I/P decision.
type EncodedFrame struct {
	// Number is the display/encode order index, starting at 0.
	Number int
	// Type is I or P.
	Type FrameType
	// Data is the entropy-coded payload (self-contained for I-frames given
	// the stream Params).
	Data []byte
	// IntraCost and InterCost are the half-resolution analysis costs used
	// for the scenecut decision (InterCost == IntraCost on frame 0).
	IntraCost, InterCost int64
}

// Errors shared by the decode paths.
var (
	ErrCorrupt   = errors.New("codec: corrupt bitstream")
	ErrNoRef     = errors.New("codec: P-frame decode without reference frame")
	ErrNotIFrame = errors.New("codec: payload is not an I-frame")
)

// MV is a full-pel motion vector.
type MV struct{ X, Y int }

// mbSize is the macroblock edge in luma pixels.
const mbSize = 16

// searchRange is the encoder's motion search radius in pixels: it sizes the
// reference frames' padded border and the diamond search's visited table.
const searchRange = 16

// scenecutRatio maps the 0–400 threshold onto the inter/intra cost ratio
// test: a frame is a scenecut when interCost >= ratio·intraCost. The
// mapping is exponential so the threshold range covers the ratios real
// events produce — a hard cut replaces most of the frame (ratio near 1),
// while a small object easing into a static scene only adds a sliver of
// uncompensable pixels per frame (ratio a few percent, because the
// analyzer's per-block deadzone zeroes the noise floor):
//
//	threshold  20   40    100   200   250   400
//	ratio      0.75 0.56  0.24  0.057 0.028 0.003
//
// Higher thresholds are therefore more sensitive to small motion, matching
// the x264 convention the paper tunes (max 400 ≈ fire on any real motion).
// The constant is calibrated so the top of the paper's tuned range
// (200-250) catches the weakest real boundaries — the trailing sliver of
// an object leaving the scene.
func scenecutRatio(threshold float64) float64 {
	return math.Exp(-threshold / 70)
}

// Cost carries the per-frame analysis costs for the I/P decision.
type Cost struct {
	Intra, Inter int64
}

// DecideType is the pure I/P decision rule shared by the live encoder and
// the tuner's replay mode: frame 0 is I, the GOP bound forces I, and a
// scenecut fires when inter prediction stops beating intra by the margin the
// threshold demands.
func DecideType(c Cost, distanceSinceI int, p Params) FrameType {
	if distanceSinceI <= 0 { // first frame of the stream
		return FrameI
	}
	if distanceSinceI >= p.GOPSize {
		return FrameI
	}
	if p.Scenecut > 0 && distanceSinceI >= p.MinGOP {
		if float64(c.Inter) >= scenecutRatio(p.Scenecut)*float64(c.Intra) {
			return FrameI
		}
	}
	return FrameP
}
