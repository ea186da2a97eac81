// Package tuner implements SiEVE's offline semantic-encoder tuning
// (Section IV): sweep GOP-size × scenecut-threshold configurations over
// labelled historical video, score each configuration by the harmonic mean
// (the paper's "F1") of event-detection accuracy and filtering rate, and
// keep the argmax in a per-camera lookup table for online use.
//
// Two sweep modes are provided:
//
//   - Replay (default): run the codec's cost analyzer once over the video,
//     then replay the pure I/P decision rule for every configuration. This
//     is exact — the encoder's scenecut decision depends only on analyzer
//     costs and the distance to the previous I-frame — and turns a k×l
//     full re-encode sweep into one analysis pass plus k×l cheap replays.
//   - Encode: re-encode the video for every configuration (the paper's
//     literal procedure). Used to validate replay and in ablation benches.
package tuner

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"sieve/internal/codec"
	"sieve/internal/frame"
	"sieve/internal/labels"
)

// Source is any frame-addressable video with ground truth (synth.Video
// satisfies it).
type Source interface {
	NumFrames() int
	Frame(i int) *frame.YUV
}

// Config is one point of the sweep.
type Config struct {
	GOP      int     `json:"gop"`
	Scenecut float64 `json:"scenecut"`
}

// String renders "gop=250 sc=40".
func (c Config) String() string { return fmt.Sprintf("gop=%d sc=%g", c.GOP, c.Scenecut) }

// DefaultConfig is the paper's untuned encoder setting.
func DefaultConfig() Config { return Config{GOP: 250, Scenecut: 40} }

// DefaultMinGOP is the min-keyint policy used when tuning and when encoding
// with tuned parameters (x264's default). Without it a crossing object —
// which reveals novel pixels every frame — would fire the scenecut on every
// frame of the crossing instead of once at the event boundary.
const DefaultMinGOP = 12

// Sweep lists the k GOP values and l scenecut values to explore (k·l
// configurations, as in Figure 2).
type Sweep struct {
	GOPs      []int
	Scenecuts []float64
}

// DefaultSweep mirrors the paper's example grid: k=5 GOP sizes and l=5
// scenecut thresholds. The GOP values are scaled for 10 fps feeds (the
// paper's examples — 100..5000 — assume 30 fps); the scenecut values are
// the paper's. Small GOPs matter because the GOP bound is what catches
// *exits*: an object leaving the scene generates motion only until it is
// gone, and min-keyint suppresses a boundary-frame scenecut, so the first
// quiet-period sample always comes from the GOP bound.
func DefaultSweep() Sweep {
	return Sweep{
		GOPs:      []int{25, 50, 100, 250, 1000},
		Scenecuts: []float64{20, 40, 100, 200, 250},
	}
}

// Configs expands the sweep grid.
func (s Sweep) Configs() []Config {
	out := make([]Config, 0, len(s.GOPs)*len(s.Scenecuts))
	for _, g := range s.GOPs {
		for _, sc := range s.Scenecuts {
			out = append(out, Config{GOP: g, Scenecut: sc})
		}
	}
	return out
}

// Result scores one configuration on one labelled video.
type Result struct {
	Config Config `json:"config"`
	// Acc is per-frame label accuracy under I-frame propagation; SS the
	// sampled share; FR the filtering rate; F1 their harmonic mean.
	Acc float64 `json:"acc"`
	SS  float64 `json:"ss"`
	FR  float64 `json:"fr"`
	F1  float64 `json:"f1"`
	// IFrames is the number of I-frames the configuration produces.
	IFrames int `json:"iframes"`
	// Samples holds the I-frame indices (the frames the NN would see).
	Samples []int `json:"-"`
}

// AnalyzeCostsContext runs the codec's lookahead analyzer over the whole
// video; one pass serves every configuration in the sweep. It checks ctx
// between frames — the analysis pass is the long-running part of tuning, so
// this is where a deadline has to be able to interrupt.
func AnalyzeCostsContext(ctx context.Context, src Source) ([]codec.Cost, error) {
	an := codec.NewCostAnalyzer()
	out := make([]codec.Cost, src.NumFrames())
	for i := range out {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = an.Analyze(src.Frame(i))
	}
	return out, nil
}

// ReplayPlacement applies the encoder's I/P decision rule to precomputed
// costs, returning the I-frame indices the encoder would produce for cfg.
func ReplayPlacement(costs []codec.Cost, cfg Config, minGOP int) []int {
	p := codec.Params{
		// Geometry and quality are irrelevant to the decision rule; use
		// placeholders that pass validation.
		Width: 16, Height: 16,
		GOPSize:  cfg.GOP,
		Scenecut: cfg.Scenecut,
		MinGOP:   minGOP,
	}
	var ifr []int
	sinceI := 0
	for i, c := range costs {
		dist := 0
		if i > 0 {
			dist = sinceI + 1
		}
		if codec.DecideType(c, dist, p) == codec.FrameI {
			ifr = append(ifr, i)
			sinceI = 0
		} else {
			sinceI++
		}
	}
	return ifr
}

// PlacementByEncoding re-encodes the video with cfg and records the actual
// I-frame positions — the paper's literal (slow) sweep step, kept for
// validation and ablation.
func PlacementByEncoding(src Source, cfg Config, quality, minGOP int) ([]int, error) {
	if src.NumFrames() == 0 {
		return nil, nil
	}
	f0 := src.Frame(0)
	enc, err := codec.NewEncoder(codec.Params{
		Width: f0.W, Height: f0.H, Quality: quality,
		GOPSize: cfg.GOP, Scenecut: cfg.Scenecut, MinGOP: minGOP,
	})
	if err != nil {
		return nil, err
	}
	var ifr []int
	for i := 0; i < src.NumFrames(); i++ {
		fr := f0
		if i > 0 {
			fr = src.Frame(i)
		}
		ef, err := enc.Encode(fr)
		if err != nil {
			return nil, fmt.Errorf("tuner: encoding frame %d: %w", i, err)
		}
		if ef.Type == codec.FrameI {
			ifr = append(ifr, i)
		}
	}
	return ifr, nil
}

// Evaluate scores a sampling (I-frame placement) against ground truth,
// computing the paper's acc/fr/F1 triple.
func Evaluate(track labels.Track, samples []int, cfg Config) Result {
	acc := labels.Accuracy(track, samples)
	ss := labels.SampleShare(len(samples), len(track))
	fr := labels.FilteringRate(len(samples), len(track))
	return Result{
		Config:  cfg,
		Acc:     acc,
		SS:      ss,
		FR:      fr,
		F1:      labels.F1(acc, fr),
		IFrames: len(samples),
		Samples: samples,
	}
}

// RunSweep evaluates every configuration by cost replay and returns all
// results (sorted by descending F1) plus the best.
func RunSweep(costs []codec.Cost, track labels.Track, sweep Sweep, minGOP int) ([]Result, Result) {
	configs := sweep.Configs()
	results := make([]Result, 0, len(configs))
	for _, cfg := range configs {
		samples := ReplayPlacement(costs, cfg, minGOP)
		results = append(results, Evaluate(track, samples, cfg))
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].F1 != results[j].F1 {
			return results[i].F1 > results[j].F1
		}
		// Deterministic tie-break: fewer I-frames, then smaller GOP.
		if results[i].IFrames != results[j].IFrames {
			return results[i].IFrames < results[j].IFrames
		}
		return results[i].Config.GOP < results[j].Config.GOP
	})
	return results, results[0]
}

// Tune is the end-to-end offline stage for one camera: analyze costs on the
// labelled training video, sweep, and return the best configuration. The
// context cancels the analysis pass between frames.
func Tune(ctx context.Context, src Source, track labels.Track, sweep Sweep) (Result, error) {
	if src.NumFrames() == 0 || len(track) != src.NumFrames() {
		return Result{}, fmt.Errorf("tuner: track length %d does not match video %d frames",
			len(track), src.NumFrames())
	}
	if len(sweep.GOPs) == 0 || len(sweep.Scenecuts) == 0 {
		return Result{}, fmt.Errorf("tuner: empty sweep")
	}
	costs, err := AnalyzeCostsContext(ctx, src)
	if err != nil {
		return Result{}, err
	}
	_, best := RunSweep(costs, track, sweep, DefaultMinGOP)
	return best, nil
}

// LookupTable is the per-camera store of tuned parameters (Figure 1's
// "lookup table" the operator consults when configuring cameras).
type LookupTable struct {
	Cameras map[string]Config `json:"cameras"`
}

// NewLookupTable returns an empty table.
func NewLookupTable() *LookupTable {
	return &LookupTable{Cameras: make(map[string]Config)}
}

// Set stores the tuned config for a camera.
func (t *LookupTable) Set(camera string, cfg Config) {
	t.Cameras[camera] = cfg
}

// Get returns the tuned config, falling back to the paper's default
// parameters for unknown cameras.
func (t *LookupTable) Get(camera string) (Config, bool) {
	cfg, ok := t.Cameras[camera]
	if !ok {
		return DefaultConfig(), false
	}
	return cfg, true
}

// Save writes the table as JSON.
func (t *LookupTable) Save(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("tuner: marshal lookup table: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadLookupTable reads a table written by Save.
func LoadLookupTable(path string) (*LookupTable, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t LookupTable
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("tuner: parse lookup table: %w", err)
	}
	if t.Cameras == nil {
		t.Cameras = make(map[string]Config)
	}
	return &t, nil
}
