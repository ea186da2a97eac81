// Package sieve is the public API of the SiEVE reproduction: semantic
// video encoding for edge/cloud video analytics (Elgamal et al., ICDCS
// 2020). It re-exports the stable surface of the internal packages:
//
//   - FrameSource / Session / Hub: the streaming-first API — pull-based
//     frame sources (synthetic presets, SVF replay, programmatic push)
//     consumed incrementally through the encoder + seeker, emitting typed
//     Events; a Hub multiplexes many concurrent feeds with per-feed
//     isolation. Batch helpers (EncodeStream) are thin wrappers over a
//     Session, so live and recorded traffic share one code path.
//   - SemanticEncoder / Decoder: the tunable video codec (scenecut + GOP).
//   - IFrameSeeker: I-frame extraction from stream metadata, no decoding.
//   - Tune: the offline parameter sweep producing per-camera configs.
//   - Detector: the YOLite reference NN, with Neurosurgeon-style
//     edge/cloud partitioning.
//   - Dataset: synthetic labelled surveillance feeds (Table I presets).
//   - IngestListener / Pusher: the network ingest plane — cameras push
//     raw frames over any net.Conn using the SVWP wire protocol
//     (PROTOCOL.md) with reconnect-resume, admission control and
//     overload shedding; the listener turns accepted connections into
//     Hub or Cluster feeds.
//
// See examples/ for runnable end-to-end scenarios and DESIGN.md for the
// system inventory.
package sieve

import (
	"context"
	"io"

	"sieve/internal/codec"
	"sieve/internal/container"
	"sieve/internal/frame"
	"sieve/internal/labels"
	"sieve/internal/nn"
	"sieve/internal/synth"
	"sieve/internal/tuner"
)

// Re-exported core types. The aliases keep the public API small and stable
// while the internal packages evolve.
type (
	// Frame is a planar YUV 4:2:0 video frame.
	Frame = frame.YUV
	// FrameType is I or P.
	FrameType = codec.FrameType
	// EncoderParams configures the semantic encoder.
	EncoderParams = codec.Params
	// EncodedFrame is one compressed frame with its decision costs.
	EncodedFrame = codec.EncodedFrame
	// StreamInfo is the container header.
	StreamInfo = container.StreamInfo
	// FrameMeta is one stream-index record (what the seeker reads).
	FrameMeta = container.FrameMeta
	// LabelSet is a canonical set of object labels.
	LabelSet = labels.Set
	// TunerConfig is a (GOP, scenecut) configuration.
	TunerConfig = tuner.Config
	// TunerResult scores a configuration (Acc/SS/FR/F1).
	TunerResult = tuner.Result
	// Dataset is a synthetic labelled video feed.
	Dataset = synth.Video
	// Detector is the YOLite reference NN.
	Detector = nn.YOLite
)

// Frame type values.
const (
	FrameI = codec.FrameI
	FrameP = codec.FrameP
)

// SemanticEncoder compresses frames with the SiEVE-tuned I-frame placement
// rule and writes them into a seekable SVF stream.
type SemanticEncoder struct {
	enc *codec.Encoder
	w   *container.Writer
}

// NewSemanticEncoder creates an encoder writing to ws (any io.WriteSeeker;
// container.Buffer or an *os.File both work). fps is the nominal capture
// rate recorded in the header.
func NewSemanticEncoder(ws io.WriteSeeker, p EncoderParams, fps int) (*SemanticEncoder, error) {
	enc, err := codec.NewEncoder(p)
	if err != nil {
		return nil, err
	}
	w, err := container.NewWriter(ws, container.StreamInfo{
		Width: p.Width, Height: p.Height, FPS: fps,
		Quality: enc.Params().Quality, GOPSize: p.GOPSize, Scenecut: p.Scenecut,
	})
	if err != nil {
		return nil, err
	}
	return &SemanticEncoder{enc: enc, w: w}, nil
}

// Encode compresses and appends one frame, returning its type and size.
// The returned EncodedFrame is freshly allocated; streaming hot paths that
// call per frame should prefer EncodeInto with a reused EncodedFrame.
func (e *SemanticEncoder) Encode(f *Frame) (*EncodedFrame, error) {
	ef := &EncodedFrame{}
	if err := e.EncodeInto(f, ef); err != nil {
		return nil, err
	}
	return ef, nil
}

// EncodeInto compresses and appends one frame into ef, reusing ef.Data's
// capacity — the allocation-free steady-state path (see codec.EncodeInto).
// The payload is written to the stream before EncodeInto returns, so ef is
// purely an output/report structure the caller may reuse every frame.
func (e *SemanticEncoder) EncodeInto(f *Frame, ef *EncodedFrame) error {
	if err := e.enc.EncodeInto(f, ef); err != nil {
		return err
	}
	return e.w.WriteEncoded(ef)
}

// Close finalises the stream index.
func (e *SemanticEncoder) Close() error { return e.w.Close() }

// ForceNextI makes the next encoded frame an I-frame regardless of the
// GOP/scenecut decision. The network ingest plane calls this at stream
// discontinuities (reconnect gaps, shed frames): a P-frame there would
// predict from a reference the stored stream's decoder never saw. The
// flag is consumed by the next encode and affects nothing else.
func (e *SemanticEncoder) ForceNextI() { e.enc.ForceNextI() }

// Params returns the encoder's normalised parameters.
func (e *SemanticEncoder) Params() EncoderParams { return e.enc.Params() }

// recon is the reconstruction of the last encoded frame, what every decoder
// of the stream produces for it (codec.Encoder.Recon): the encoder's own
// reference buffer, read-only and valid until the next encode.
//
//sieve:noalloc view accessor of the session's detection path
func (e *SemanticEncoder) recon() *Frame { return e.enc.Recon() }

// OpenStream parses an SVF stream for reading and seeking.
func OpenStream(ra io.ReaderAt, size int64) (*container.Reader, error) {
	return container.NewReader(ra, size)
}

// IFrameSeeker walks a stream's metadata and exposes only its key frames —
// the paper's edge-side module that makes analysis 100x cheaper than
// decoding everything.
type IFrameSeeker struct {
	r *container.Reader
}

// NewIFrameSeeker wraps a parsed stream.
func NewIFrameSeeker(r *container.Reader) *IFrameSeeker { return &IFrameSeeker{r: r} }

// IFrames lists the key-frame index records (no payload I/O).
func (s *IFrameSeeker) IFrames() []FrameMeta { return s.r.IFrames() }

// DecodeIFrame decodes one I-frame independently, like a still image.
func (s *IFrameSeeker) DecodeIFrame(m FrameMeta) (*Frame, error) {
	payload, err := s.r.Payload(m.Index)
	if err != nil {
		return nil, err
	}
	return codec.DecodeIFrame(s.r.Info().CodecParams(), payload)
}

// FilterRate reports the share of frames the seeker drops without decoding.
func (s *IFrameSeeker) FilterRate() float64 {
	total := s.r.NumFrames()
	if total == 0 {
		return 0
	}
	return 1 - float64(len(s.r.IFrames()))/float64(total)
}

// NewDecoder returns a full sequential decoder for a stream's parameters
// (what the comparison baselines are forced to use on every frame).
func NewDecoder(info StreamInfo) (*codec.Decoder, error) {
	return codec.NewDecoder(info.CodecParams())
}

// Tune runs the offline stage on a labelled video: sweep GOP × scenecut,
// score by the accuracy/filtering-rate harmonic mean, return the argmax.
// The context cancels the analysis pass between frames.
func Tune(ctx context.Context, v *Dataset, sweep tuner.Sweep) (TunerResult, error) {
	return tuner.Tune(ctx, v, v.Track(), sweep)
}

// DefaultSweep is the paper's k=5 × l=5 sweep grid.
func DefaultSweep() tuner.Sweep { return tuner.DefaultSweep() }

// DefaultParams returns the paper's untuned encoder parameters for a
// geometry (scenecut 40, GOP 250).
func DefaultParams(w, h int) EncoderParams { return codec.Defaults(w, h) }

// TunedParams converts a tuner result into encoder parameters.
func TunedParams(w, h int, cfg TunerConfig) EncoderParams {
	return EncoderParams{
		Width: w, Height: h,
		GOPSize: cfg.GOP, Scenecut: cfg.Scenecut,
		MinGOP: tuner.DefaultMinGOP,
	}
}

// LoadDataset builds one of the five Table I synthetic feeds.
func LoadDataset(name synth.PresetName, seconds, fps int) (*Dataset, error) {
	return synth.Preset(name, synth.PresetOpts{Seconds: seconds, FPS: fps})
}

// Datasets lists the preset names.
func Datasets() []synth.PresetName { return synth.AllPresets() }

// NewDetector builds the YOLite reference detector for the given classes.
func NewDetector(classes []string, inputSize int) *Detector {
	return nn.NewYOLite(classes, inputSize)
}
