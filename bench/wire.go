package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sieve"
	"sieve/internal/telemetry"
)

// lateLimit is the noise guard: a wire_paced run whose generator's p99
// lateness exceeds it was disturbed by the box, not by the system.
const lateLimit = 20 * time.Millisecond

// countingConn meters the bytes a camera's TCP connection really carries,
// both directions — frames up, acks down.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

// wireRun is one open-loop run: every camera pushes frames at its fixed
// rate over loopback TCP into a hub that encodes and detects.
type wireRun struct {
	cost       // frames: frames encoded
	offered    int
	iframes    int
	detections int
	frameLat   []float64 // ms, due time -> EventFrameEncoded observed
	detectLat  []float64 // ms, due time -> EventDetection observed
	genLate    []float64 // ms, due time -> frame handed to the pusher
	missed     int       // frames not encoded within liveDeadline of their due time
	span       time.Duration
	wireBytes  int64
	ingest     sieve.IngestStats
	pushers    []sieve.PusherStats
	stageNs    map[telemetry.Stage]float64 // traced run: the system's own stage spans, summed
	streams    map[string][32]byte
	problems   []string
	failed     int
}

func runWirePass(e *env, frames int, traced bool) (*wireRun, error) {
	sz := e.sz
	run := &wireRun{offered: sz.wireCams * frames}
	params := e.sc.params(sz.wireGOP)
	base := liveHeap()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lst := sieve.NewIngestListener(ln, sieve.WithExpectedFeeds(sz.wireCams),
		sieve.WithIngestSession(func(string, sieve.SourceInfo) []sieve.SessionOption {
			// Batch-1 detection per feed: the documented setting for live
			// traffic (a shared plane would make a camera wait on its sibling).
			return []sieve.SessionOption{sieve.WithDetector(e.det)}
		}))
	defer lst.Close()
	hubOpts := []sieve.HubOption{sieve.WithListener(lst)}
	var tracer *sieve.Tracer
	if traced {
		tracer = sieve.NewTracer(nil)
		hubOpts = append(hubOpts, sieve.WithHubTrace(tracer))
	}
	hub := sieve.NewHub(hubOpts...)

	watch := newStopwatch()
	sched := newSchedule(sz.wireCams, watch)
	period := time.Second / time.Duration(sz.wireFPS)
	srcs := make(map[string]*pacedSource, sz.wireCams)
	var order []*pacedSource
	for i := 0; i < sz.wireCams; i++ {
		// Cameras are spread evenly over one frame period.
		phase := period * time.Duration(i) / time.Duration(sz.wireCams)
		src := newPacedSource(e.sc, feedName(i), e.sc.feedOffset(i, sz.wireCams), frames, sz.wireFPS, phase, sched)
		srcs[src.name] = src
		order = append(order, src)
	}

	run.frameLat = make([]float64, 0, run.offered)
	encodedAt := make(map[string][]int64, sz.wireCams)
	for name := range srcs {
		encodedAt[name] = make([]int64, frames)
	}
	var lastEvent int64
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range hub.Events() {
			src := srcs[ev.Feed]
			if src == nil || ev.Frame < 0 || ev.Frame >= frames {
				continue
			}
			now := watch.now()
			switch ev.Kind {
			case sieve.EventFrameEncoded:
				encodedAt[ev.Feed][ev.Frame] = now
				run.frameLat = append(run.frameLat, ms(now-src.due[ev.Frame]))
				run.frames++
				lastEvent = now
			case sieve.EventIFrame:
				run.iframes++
			case sieve.EventDetection:
				run.detectLat = append(run.detectLat, ms(now-src.due[ev.Frame]))
				run.detections++
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(frames)*period+60*time.Second)
	defer cancel()
	var wire atomic.Int64
	run.m.begin()
	hubErr := make(chan error, 1)
	go func() { hubErr <- hub.Run(ctx) }()
	pushers := make([]*sieve.Pusher, len(order))
	pushErrs := make([]error, len(order))
	var wg sync.WaitGroup
	for i, src := range order {
		conn, err := net.Dial("tcp", lst.Addr().String())
		if err != nil {
			cancel()
			return nil, err
		}
		pushers[i] = sieve.NewPusher(src, sieve.WithPusherName(src.name), sieve.WithPusherEncoding(params))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pushErrs[i] = pushers[i].Run(ctx, countingConn{conn, &wire})
		}(i)
	}
	wg.Wait()
	err = <-hubErr
	<-consumed
	run.m.end()
	run.retained = retainedMB(base)
	for i, perr := range pushErrs {
		if perr != nil {
			return nil, fmt.Errorf("pusher %d: %w", i, perr)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("hub run: %w", err)
	}

	run.wireBytes = wire.Load()
	run.span = time.Duration(lastEvent - sched.t0)
	run.ingest = lst.Stats()
	if tracer != nil {
		run.stageNs = stageTotals(tracer.Spans())
	}
	for i, src := range order {
		run.pushers = append(run.pushers, pushers[i].Stats())
		for f := 0; f < frames; f++ {
			run.genLate = append(run.genLate, ms(src.handed[f]-src.due[f]))
			if at := encodedAt[src.name][f]; at == 0 || at-src.due[f] > int64(liveDeadline) {
				run.missed++
			}
		}
	}
	run.streams = make(map[string][32]byte, len(order))
	for _, src := range order {
		r, err := lst.Store().Open(src.name)
		if err != nil {
			run.problems = append(run.problems, fmt.Sprintf("%s: stored stream missing: %v", src.name, err))
			continue
		}
		run.streams[src.name] = digest(r)
	}

	st := run.ingest
	if n := run.offered - run.frames; n != 0 {
		run.failed += n
		run.problems = append(run.problems, fmt.Sprintf("%d of %d frames encoded", run.frames, run.offered))
	}
	if n := run.iframes - run.detections; n != 0 {
		run.failed += n
		run.problems = append(run.problems, fmt.Sprintf("%d I-frames without a detection", n))
	}
	if bad := st.Duplicates + st.Skipped + st.Shed + st.Evicted; bad != 0 || st.FramesReceived != int64(run.offered) {
		run.failed++
		run.problems = append(run.problems, fmt.Sprintf("ingest counters off: received %d of %d, %d dup, %d skipped, %d shed, %d evicted",
			st.FramesReceived, run.offered, st.Duplicates, st.Skipped, st.Shed, st.Evicted))
	}
	runtime.KeepAlive(hub)
	return run, nil
}

func wireFeeds(e *env, frames int) []replayFeed {
	feeds := make([]replayFeed, e.sz.wireCams)
	for i := range feeds {
		feeds[i] = replayFeed{name: feedName(i), frames: e.sc.feedFrames(e.sc.feedOffset(i, e.sz.wireCams), frames)}
	}
	return feeds
}

// checkWire compares the streams the listener stored with an in-process
// encode of the same frames. Returns outputs checked.
func checkWire(run *wireRun, ref *replayResult) int {
	for _, name := range differingStreams(run.streams, ref.streams) {
		run.failed++
		run.problems = append(run.problems, fmt.Sprintf("%s: stored stream differs from the in-process encode", name))
	}
	return len(ref.streams) + 1 // + the ingest counters
}

// runWire measures wire_paced. The run length is the offered load: fps x
// seconds frames per camera. Traced: the same load in shorter untraced and
// traced passes that alternate, then the layer replay.
func runWire(e *env, seconds float64, traced bool) (*reading, error) {
	sz := e.sz
	frames := sz.wireFrames
	if frames == 0 {
		frames = int(float64(sz.wireFPS) * seconds)
	}
	pairs := 0
	if traced {
		pairs = sz.tracedPasses
		frames /= 2 * pairs
		frames -= frames % sz.wireGOP // whole GOPs, so the filter rate stays the untraced run's
	}
	if frames < sz.wireGOP {
		frames = sz.wireGOP // at least one whole GOP
	}
	// Warm-up: one short push so listener, codec and detector paths have run.
	if _, err := runWirePass(e, sz.wireGOP, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	r := &reading{counts: map[string]int64{}}
	measure := func(withTrace bool) (*wireRun, error) {
		run, err := runWirePass(e, frames, withTrace)
		if err != nil {
			return nil, err
		}
		if len(run.genLate) >= 100 && percentile(run.genLate, 0.99) > ms(int64(lateLimit)) {
			// The generator itself ran late: the box was busy with something
			// else. Rerun once and say so. (Under 100 samples the p99 is the
			// slowest frame, which says nothing about the box: the short
			// passes of a traced run are never rerun.)
			r.disturbed = true
			if run, err = runWirePass(e, frames, withTrace); err != nil {
				return nil, err
			}
		}
		return run, nil
	}
	var plain, withTrace []*wireRun
	if !traced {
		run, err := measure(false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, run)
	}
	for i := 0; i < pairs; i++ {
		for _, on := range []bool{false, true} {
			run, err := measure(on)
			if err != nil {
				return nil, err
			}
			if on {
				withTrace = append(withTrace, run)
			} else {
				plain = append(plain, run)
			}
		}
	}

	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	rcfg := replayConfig{params: e.sc.params(sz.wireGOP), fps: sz.wireFPS, det: e.det, batch: 1}
	ref, err := replay(rcfg, wireFeeds(e, frames), rec)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	for _, run := range append(append([]*wireRun(nil), plain...), withTrace...) {
		r.attempted += run.offered + run.iframes + checkWire(run, ref)
		r.failed += run.failed
		r.problems = append(r.problems, run.problems...)
	}
	first := plain[0]
	r.counts["codec.frames"] = int64(first.frames)
	r.counts["codec.iframes"] = int64(first.iframes)
	r.counts["codec.payload_bytes"] = ref.payload
	r.counts["wire.bytes"] = first.wireBytes

	// Every pass offers the same frames; latencies pool over passes.
	var pool wireRun
	for _, run := range plain {
		pool.frames += run.frames
		pool.offered += run.offered
		pool.iframes += run.iframes
		pool.detections += run.detections
		pool.missed += run.missed
		pool.frameLat = append(pool.frameLat, run.frameLat...)
		pool.detectLat = append(pool.detectLat, run.detectLat...)
		pool.genLate = append(pool.genLate, run.genLate...)
	}

	if !traced {
		m := newMetricSet(endToEnd)
		putCosts(m, costsOf(plain))
		// The timed region also holds the handshake and the close; throughput
		// counts from the first due time to the last encoded frame.
		m.put("frames_per_s", float64(first.frames)/first.span.Seconds(), first.frames)
		m.put("hop_bytes_per_frame", float64(first.wireBytes)/float64(first.offered), first.frames)
		m.put("frame_latency_ms_p50", median(pool.frameLat), len(pool.frameLat))
		m.put("detect_latency_ms_p50", median(pool.detectLat), len(pool.detectLat))
		m.put("deadline_met_share", 1-float64(pool.missed)/float64(pool.offered), pool.offered)
		r.metrics = m
		return r, nil
	}

	m := newMetricSet(perLayer)
	r.metrics = m
	r.spans = rec.spans
	m.put("codec.frames", float64(pool.frames), 0)
	m.put("codec.iframes", float64(pool.iframes), 0)
	m.put("codec.filter_rate", 1-float64(pool.iframes)/float64(pool.frames), 0)
	m.put("codec.payload_bytes_per_frame", float64(ref.payload)/float64(ref.frames), 0)
	m.put("infer.batches", float64(pool.detections), 0)
	m.put("infer.batch_fill", 1, 0)
	var st sieve.IngestStats
	attempts := 0
	for _, run := range plain {
		st.FramesReceived += run.ingest.FramesReceived
		st.Duplicates += run.ingest.Duplicates
		st.Shed += run.ingest.Shed + run.ingest.Evicted
		st.AcksSent += run.ingest.AcksSent
		for _, ps := range run.pushers {
			attempts += ps.Attempts
		}
	}
	m.put("ingest.frames_received", float64(st.FramesReceived), 0)
	m.put("ingest.duplicates", float64(st.Duplicates), 0)
	m.put("ingest.shed", float64(st.Shed), 0)
	m.put("ingest.acks_sent", float64(st.AcksSent), 0)
	m.put("pusher.attempts", float64(attempts), 0)
	m.put("ingest.frame_latency_ms_p90", percentile(pool.frameLat, 0.90), len(pool.frameLat))
	m.put("ingest.frame_latency_ms_p99", percentile(pool.frameLat, 0.99), len(pool.frameLat))
	m.put("ingest.detect_latency_ms_p90", percentile(pool.detectLat, 0.90), len(pool.detectLat))
	m.put("ingest.generator_late_ms_p99", percentile(pool.genLate, 0.99), len(pool.genLate))
	m.put("ingest.deadline_miss_share", float64(pool.missed)/float64(pool.offered), pool.offered)
	putRuntimeLayers(m, costsOf(plain))
	// The offered rate fixes throughput, so tracing shows as CPU per frame.
	inSitu, inSituTraced := total(costsOf(plain)), total(costsOf(withTrace))
	m.put("trace_overhead_share", 1-inSitu.cpuPerFrame()/inSituTraced.cpuPerFrame(), len(withTrace))

	tot := map[telemetry.Stage]float64{}
	tracedIFrames := 0
	for _, run := range withTrace {
		for stage, ns := range run.stageNs {
			tot[stage] += ns
		}
		tracedIFrames += run.iframes
	}
	per := float64(inSituTraced.frames)
	m.put("sieve.stage_pull_ns", tot[telemetry.StagePull]/per, inSituTraced.frames)
	m.put("sieve.stage_encode_ns", tot[telemetry.StageEncode]/per, inSituTraced.frames)
	m.put("sieve.stage_infer_ns", tot[telemetry.StageInfer]/per, inSituTraced.frames)

	putReplayLayers(m, rec, ref)
	writeNs, readNs, wireBytes, err := wireReplay(wireFeeds(e, frames)[0].frames, rec)
	if err != nil {
		return nil, fmt.Errorf("wire replay: %w", err)
	}
	m.put("wire.write_ns_per_frame", writeNs, frames)
	m.put("wire.read_ns_per_frame", readNs, frames)
	m.put("wire.bytes_per_frame", wireBytes, frames)
	if tracedIFrames > 0 {
		inferPerI := tot[telemetry.StageInfer] / float64(tracedIFrames)
		m.put("infer.wait_ns_per_iframe", inferPerI-m.values["codec.idecode_ns_per_iframe"]-m.values["nn.forward_ns_per_frame"], tracedIFrames)
	}
	// Glue: in-situ CPU per frame minus the replay's layers. The wire replay
	// covers one camera and its write span contains the read (net.Pipe is
	// synchronous), so it enters once, per frame.
	var layered int64
	for _, s := range rec.spans {
		if s.Layer != "sieve" && s.Layer != "wire" {
			layered += s.EndNs - s.StartNs
		}
	}
	r.putGlue(plain[len(plain)-1].cpuPerFrame(), float64(layered)/float64(ref.frames)+writeNs)
	putKernels(m, e.sc)
	return r, nil
}
