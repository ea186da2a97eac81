package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"sieve"
	"sieve/internal/nn"
	"sieve/internal/synth"
	"sieve/internal/tuner"
)

// trainDetector fits the reference detector exactly like cmd/sieve's
// trainFleetDetector: fixed train seed, independent of the workload seed,
// so the detector is the same program input on every run.
func trainDetector() (*sieve.Detector, error) {
	train, err := synth.Preset(synth.JacksonSquare, synth.PresetOpts{Seconds: 20, FPS: 5, Seed: 7})
	if err != nil {
		return nil, err
	}
	var lab []nn.LabeledFrame
	for i := 0; i < train.NumFrames(); i += 5 {
		lf := nn.LabeledFrame{Frame: train.Frame(i)}
		for _, b := range train.Boxes(i) {
			lf.Boxes = append(lf.Boxes, nn.ObjectBox{Class: string(b.Class), X: b.X, Y: b.Y, W: b.W, H: b.H})
		}
		lab = append(lab, lf)
	}
	det := sieve.NewDetector([]string{"car", "bus", "truck"}, 96)
	if _, err := det.Train(lab, nn.TrainConfig{Seed: 3, Epochs: 12}); err != nil {
		return nil, err
	}
	return det, nil
}

// scene is one camera view; its frames are pre-rendered in set-up so synth
// never runs inside a timed region.
type scene struct {
	name          string
	width, height int
	fps           int
	clip          []*sieve.Frame
}

// Both scenes keep the traffic schedule (which vehicle crosses when, on
// which lane, how fast) the same for every seed: it decides how much work a
// frame is, and runs with different seeds must be comparable. The seed
// changes what the pixels are — background texture, sensor noise, every
// vehicle's body texture — so no two seeds give the system the same bytes.

// quietScene is Jackson Square's geometry, noise and foliage clutter with a
// vehicle crossing every few seconds.
func quietScene(seed uint64, frames int) (*scene, error) {
	const w, h, fps = 600, 400, 5
	spec := synth.Spec{
		Name: "jackson_square", Width: w, Height: h, FPS: fps, NumFrames: frames,
		NoiseAmp: 2,
		Clutter: []synth.ClutterPatch{
			{X: 0.02, Y: 0.04, W: 0.20, H: 0.30, Amp: 3, Period: 12, Phase: 0},
			{X: 0.74, Y: 0.02, W: 0.24, H: 0.34, Amp: 3, Period: 15, Phase: 2.1},
			{X: 0.40, Y: 0.06, W: 0.14, H: 0.20, Amp: 2, Period: 9, Phase: 4.0},
		},
		Seed: 101 + seed*7919,
	}
	spec.Objects = synth.GenerateObjects(w, h, frames, synth.ScheduleParams{
		Classes: []synth.Class{synth.Car, synth.Car, synth.Car, synth.Bus, synth.Truck},
		Scale:   0.26, ScaleJitter: 0.05,
		Speed: 28, SpeedJitter: 6,
		MeanGap: 30, MinGap: 10,
		Lanes: []float64{0.68, 0.80},
		Seed:  1001,
	})
	return renderScene(spec, seed)
}

// busyScene is rush hour on a low-resolution analytics sub-stream.
func busyScene(seed uint64, frames int) (*scene, error) {
	const w, h, fps = 320, 240, 10
	spec := synth.Spec{
		Name: "rush_hour", Width: w, Height: h, FPS: fps, NumFrames: frames,
		NoiseAmp: 2,
		Clutter: []synth.ClutterPatch{
			{X: 0.05, Y: 0.05, W: 0.25, H: 0.30, Amp: 2, Period: 20, Phase: 1.3},
		},
		Seed: 404 + seed*7919,
	}
	spec.Objects = synth.GenerateObjects(w, h, frames, synth.ScheduleParams{
		Classes: []synth.Class{synth.Car, synth.Car, synth.Bus, synth.Truck},
		Scale:   0.28, ScaleJitter: 0.06,
		Speed: 14, SpeedJitter: 4,
		MeanGap: 12, MinGap: 3,
		Lanes: []float64{0.55, 0.70, 0.84},
		Seed:  4004,
	})
	return renderScene(spec, seed)
}

func renderScene(spec synth.Spec, seed uint64) (*scene, error) {
	for i := range spec.Objects {
		spec.Objects[i].Seed += seed * 104729
	}
	v, err := synth.New(spec)
	if err != nil {
		return nil, err
	}
	sc := &scene{name: spec.Name, width: spec.Width, height: spec.Height, fps: spec.FPS,
		clip: make([]*sieve.Frame, spec.NumFrames)}
	for i := range sc.clip {
		sc.clip[i] = v.RenderInto(i, nil)
	}
	return sc, nil
}

// params returns the semantic-encoder parameters of a workload on this
// scene. I-frames come from the GOP alone (scenecut 0), so the filter rate
// is exactly 1 - 1/gop on every seed and all feeds of a site reach their
// I-frames together; the encoder's cost analysis still runs on every frame.
func (sc *scene) params(gop int) sieve.EncoderParams {
	return sieve.EncoderParams{
		Width: sc.width, Height: sc.height,
		GOPSize: gop, Scenecut: 0, MinGOP: tuner.DefaultMinGOP,
	}
}

// frameAt maps a feed position to a clip frame, walking the clip forwards
// then backwards so a feed longer than the clip never sees a cut.
func (sc *scene) frameAt(pos int) *sieve.Frame {
	n := len(sc.clip)
	if n == 1 {
		return sc.clip[0]
	}
	pos %= 2*n - 2
	if pos >= n {
		pos = 2*n - 2 - pos
	}
	return sc.clip[pos]
}

// feedOffset spreads feeds over the clip so that no two feeds of a workload
// encode the same frames.
func (sc *scene) feedOffset(feed, feeds int) int {
	return feed * len(sc.clip) / feeds
}

// clipSource is the benchmark-owned FrameSource: it hands out pre-rendered
// clip frames (never copied — the pipeline only reads them) and stamps the
// moment each one is handed over, the start of its latency.
type clipSource struct {
	sc     *scene
	name   string
	offset int
	frames int
	i      int
	// handed[i] is when frame i left the source, in ns since the epoch of
	// the run's stopwatch; read by the event consumer after the frame's
	// event arrives (the event channel orders the two).
	handed []int64
	watch  *stopwatch
}

func newClipSource(sc *scene, name string, offset, frames int, w *stopwatch) *clipSource {
	return &clipSource{sc: sc, name: name, offset: offset, frames: frames,
		handed: make([]int64, frames), watch: w}
}

func (s *clipSource) Info() sieve.SourceInfo {
	return sieve.SourceInfo{Name: s.name, Width: s.sc.width, Height: s.sc.height, FPS: s.sc.fps, Frames: s.frames}
}

func (s *clipSource) Next(ctx context.Context) (*sieve.Frame, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.i >= s.frames {
		return nil, io.EOF
	}
	f := s.sc.frameAt(s.offset + s.i)
	s.handed[s.i] = s.watch.now()
	s.i++
	return f, nil
}

// feedFrames lists the frames a clipSource with these coordinates yields, for
// the replay and the correctness gate.
func (sc *scene) feedFrames(offset, frames int) []*sieve.Frame {
	out := make([]*sieve.Frame, frames)
	for i := range out {
		out[i] = sc.frameAt(offset + i)
	}
	return out
}

// pacedSource is the open-loop camera: frame i is due at t0 + phase + i/fps
// whether or not the system kept up, and Next blocks until then. due and
// handed are both kept, so latencies count from the due time and generator
// lateness is reported.
type pacedSource struct {
	clipSource
	sched   *schedule
	started bool
	t0      int64
	phase   time.Duration
	period  time.Duration
	due     []int64
}

// schedule starts every camera of a run on one clock: t0 is fixed once all
// cameras have asked for their first frame (both pushers are then past the
// handshake), a little in the future so the sessions are up.
type schedule struct {
	cams  int
	watch *stopwatch

	mu      sync.Mutex
	arrived int
	ready   chan struct{}
	t0      int64
}

func newSchedule(cams int, w *stopwatch) *schedule {
	return &schedule{cams: cams, watch: w, ready: make(chan struct{})}
}

const scheduleLead = 50 * time.Millisecond

// start is called once per camera and blocks until every camera called it.
func (sc *schedule) start(ctx context.Context) (int64, error) {
	sc.mu.Lock()
	sc.arrived++
	if sc.arrived == sc.cams {
		sc.t0 = sc.watch.now() + int64(scheduleLead)
		close(sc.ready)
	}
	sc.mu.Unlock()
	select {
	case <-sc.ready:
		return sc.t0, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

func newPacedSource(sc *scene, name string, offset, frames, fps int, phase time.Duration, sched *schedule) *pacedSource {
	return &pacedSource{
		clipSource: *newClipSource(sc, name, offset, frames, sched.watch),
		sched:      sched, phase: phase, period: time.Second / time.Duration(fps),
		due: make([]int64, frames),
	}
}

func (s *pacedSource) Info() sieve.SourceInfo {
	info := s.clipSource.Info()
	info.FPS = int(time.Second / s.period)
	return info
}

func (s *pacedSource) Next(ctx context.Context) (*sieve.Frame, error) {
	if s.i >= s.frames {
		return nil, io.EOF
	}
	if !s.started {
		t0, err := s.sched.start(ctx)
		if err != nil {
			return nil, err
		}
		s.t0, s.started = t0, true
	}
	due := s.t0 + int64(s.phase) + int64(s.i)*int64(s.period)
	s.due[s.i] = due
	if wait := time.Duration(due - s.watch.now()); wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
	return s.clipSource.Next(ctx)
}

// env is everything a workload's set-up leaves behind.
type env struct {
	workload string
	seed     uint64
	sz       sizes
	det      *sieve.Detector
	sc       *scene
	// archive_scan only: the archive, the long-lived scanners that read it,
	// and the live heap before the archive was built (its retained state is
	// built in set-up).
	archive    *archive
	scanners   []*scanner
	heapBefore uint64
}

// setUp runs a workload's whole set-up once: detector training, clip
// rendering and, for archive_scan, encoding the archive.
func setUp(workload string, seed uint64, sz sizes) (*env, error) {
	det, err := trainDetector()
	if err != nil {
		return nil, fmt.Errorf("training detector: %w", err)
	}
	e := &env{workload: workload, seed: seed, sz: sz, det: det}
	switch workload {
	case edgeQuiet, wirePaced:
		e.sc, err = quietScene(seed, sz.clipFrames)
	case edgeBusy, archiveScan:
		e.sc, err = busyScene(seed, sz.clipFrames)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, fmt.Errorf("rendering clip: %w", err)
	}
	if workload == archiveScan {
		for i := 0; i < 2; i++ {
			s, err := newScanner(det, e.sc, sz.busyGOP)
			if err != nil {
				return nil, err
			}
			e.scanners = append(e.scanners, s)
		}
		e.heapBefore = liveHeap()
		if e.archive, err = buildArchive(e); err != nil {
			return nil, fmt.Errorf("encoding archive: %w", err)
		}
	}
	return e, nil
}

// timedSetUp runs set-up sz.setupReps times and returns the last
// environment with the median set-up time.
func timedSetUp(workload string, seed uint64, sz sizes) (*env, float64, error) {
	var (
		e     *env
		times []float64
	)
	for i := 0; i < sz.setupReps; i++ {
		e = nil
		liveHeap() // collect the previous repetition outside the clock
		start := time.Now()
		var err error
		if e, err = setUp(workload, seed, sz); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return e, median(times), nil
}
