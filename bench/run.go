package main

import (
	"fmt"
	"time"

	"sieve/internal/telemetry"
)

// reading is one run of one workload in one mode: the end-to-end table
// (tracing off) or the per-layer table (traced run).
type reading struct {
	metrics   *metricSet
	attempted int
	failed    int
	problems  []string
	// notes qualify a reading without failing it.
	notes []string
	// counts are the exact, seed-determined numbers expected.json pins.
	counts map[string]int64
	// traced says which table metrics holds.
	traced bool
	// disturbed marks a wire_paced run whose generator ran late and was
	// rerun once.
	disturbed bool
	spans     []span
}

func (r *reading) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *reading) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// putGlue records what the system's own glue (Session, Hub, Cluster) costs
// per frame: the CPU a frame took in situ — in the last untraced pass, the
// one nearest in time to the replay — minus everything the replay
// attributes to a layer. The two are still measured one after the other, so
// when the box slowed down for the replay the difference is negative: it is
// then reported as 0 and the reading says it could not be resolved.
func (r *reading) putGlue(inSituNs, layeredNs float64) {
	glue := inSituNs - layeredNs
	if glue < 0 {
		r.note("sieve.glue_ns_per_frame unresolved: the replay's layers took %.0f ns per frame, more than the %.0f ns of CPU a frame took in situ; reported as 0", layeredNs, inSituNs)
		glue = 0
	}
	r.metrics.put("sieve.glue_ns_per_frame", glue, 0)
}

// runWorkload executes one workload: set-up, warm-up, the measurement and
// the correctness gate. traced selects the per-layer run.
func runWorkload(workload string, seed uint64, seconds float64, traced bool, sz sizes) (*reading, error) {
	if traced {
		sz.setupReps = 1 // set-up time is an end-to-end metric
	}
	e, setupS, err := timedSetUp(workload, seed, sz)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", workload, err)
	}
	r, err := measure(e, seconds, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if !traced {
		r.metrics.put("setup_s", setupS, sz.setupReps)
	}
	return r, nil
}

// measure runs a set-up workload's warm-up, measurement and correctness gate.
func measure(e *env, seconds float64, traced bool) (r *reading, err error) {
	switch e.workload {
	case edgeQuiet, edgeBusy:
		r, err = runEdge(e, seconds, traced)
	case archiveScan:
		r, err = runArchive(e, seconds, traced)
	default:
		r, err = runWire(e, seconds, traced)
	}
	if r != nil {
		r.traced = traced
	}
	return r, err
}

// passLoop runs pass until seconds of wall time are used, at least
// minPasses times.
func passLoop(seconds float64, minPasses int, pass func(i int) error) error {
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start).Seconds() < seconds; i++ {
		if err := pass(i); err != nil {
			return err
		}
	}
	return nil
}

// runEdge measures a closed-loop cluster workload. Untraced: passes of
// Cluster.Run through Merged(), per-pass readings, medians over passes.
// Traced: untraced and traced passes alternate (their ratio is the tracing
// overhead), then the layer replay and the kernels.
func runEdge(e *env, seconds float64, traced bool) (*reading, error) {
	cfg := edgeConfigOf(e.workload, e.sz)
	warm := cfg.frames / 5
	if warm < cfg.gop {
		warm = cfg.gop
	}
	if _, err := runEdgePass(e, cfg, warm, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var plain, withTrace []*edgePass
	err := passLoop(seconds, e.sz.passes(traced), func(i int) error {
		p, err := runEdgePass(e, cfg, cfg.frames, traced && i%2 == 1)
		if err != nil {
			return err
		}
		if traced && i%2 == 1 {
			withTrace = append(withTrace, p)
		} else {
			plain = append(plain, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	rcfg := cfg.replayConfig(e)
	ref, err := replay(rcfg, cfg.replayFeeds(e, cfg.frames), rec)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	r := &reading{counts: map[string]int64{}}
	for _, p := range append(append([]*edgePass(nil), plain...), withTrace...) {
		checked := checkEdgePass(p, ref)
		r.attempted += cfg.feeds*cfg.frames + p.stats.IFrames + checked
		r.failed += p.failed
		r.problems = append(r.problems, p.problems...)
	}
	first := plain[0]
	r.counts["codec.frames"] = int64(first.stats.Frames)
	r.counts["codec.iframes"] = int64(first.stats.IFrames)
	r.counts["codec.payload_bytes"] = first.stats.PayloadBytes
	r.counts["uplink_bytes"] = first.stats.UplinkBytes
	r.counts["cluster.delta_syncs"] = first.stats.DeltaSyncs
	r.counts["store.merged_entries"] = int64(first.stats.MergedEntries)
	if cfg.workers == 1 {
		r.counts["infer.batches"] = first.stats.Inference.Batches
	}
	for _, p := range plain[1:] {
		got := [3]int64{int64(p.stats.Frames), p.stats.PayloadBytes, p.stats.UplinkBytes}
		want := [3]int64{int64(first.stats.Frames), first.stats.PayloadBytes, first.stats.UplinkBytes}
		if got != want {
			r.fail(1, "exact counts (frames, payload bytes, uplink bytes) differ between passes: %v vs %v", got, want)
		}
	}

	if !traced {
		r.metrics = newMetricSet(endToEnd)
		putEdgeEndToEnd(r.metrics, plain)
		return r, nil
	}
	r.metrics = newMetricSet(perLayer)
	r.spans = rec.spans
	putEdgeLayers(r, e, cfg, rcfg, plain, withTrace, ref, rec)
	return r, nil
}

func putEdgeEndToEnd(m *metricSet, ps []*edgePass) {
	putCosts(m, costsOf(ps))
	// The same exact counts on every pass (runEdge checks that).
	m.put("hop_bytes_per_frame", float64(ps[0].stats.UplinkBytes)/float64(ps[0].frames), len(ps))
	var frameLat, detectLat []float64
	late, offered := 0, 0
	for _, p := range ps {
		frameLat = append(frameLat, p.frameLat...)
		detectLat = append(detectLat, p.detectLat...)
		late += p.lateOver + p.failed
		offered += p.frames + p.failed
	}
	m.put("frame_latency_ms_p50", median(frameLat), len(frameLat))
	m.put("detect_latency_ms_p50", median(detectLat), len(detectLat))
	m.put("deadline_met_share", 1-float64(late)/float64(offered), offered)
}

// stageTotals sums the system's own in-situ stage spans (source T).
func stageTotals(spans []telemetry.Span) map[telemetry.Stage]float64 {
	tot := map[telemetry.Stage]float64{}
	for _, s := range spans {
		tot[s.Stage] += float64(s.End.Sub(s.Start))
	}
	return tot
}

func putEdgeLayers(r *reading, e *env, cfg edgeConfig, rcfg replayConfig, plain, withTrace []*edgePass, ref *replayResult, rec *recorder) {
	m := r.metrics
	first := plain[0]
	st := first.stats
	frames := float64(st.Frames)
	iframes := float64(st.IFrames)

	// S: stats snapshot of an untraced pass.
	m.put("codec.frames", frames, 0)
	m.put("codec.iframes", iframes, 0)
	m.put("codec.filter_rate", st.FilterRate(), 0)
	m.put("codec.payload_bytes_per_frame", float64(st.PayloadBytes)/frames, 0)
	m.put("infer.batches", float64(st.Inference.Batches), 0)
	m.put("infer.batch_fill", st.Inference.MeanBatch()/float64(cfg.batch), 0)
	m.put("store.merged_entries", float64(st.MergedEntries), 0)
	m.put("cluster.delta_syncs", float64(st.DeltaSyncs), 0)
	m.put("cluster.uplink_activation_bytes", float64(st.Split.ActivationBytes), 0)
	m.put("cluster.uplink_detection_bytes", float64(st.UplinkBytes-st.Split.ActivationBytes), 0)
	var busy time.Duration
	for _, s := range st.Sites {
		busy += s.UplinkBusy
	}
	m.put("cluster.uplink_busy_modelled_s", busy.Seconds(), 0)
	putRuntimeLayers(m, costsOf(plain))
	m.put("trace_overhead_share", traceOverhead(costsOf(plain), costsOf(withTrace)), len(withTrace))

	// T: the system's own stage spans of the traced passes, per frame.
	var lag []float64
	for _, p := range withTrace {
		lag = append(lag, p.viewLag...)
	}
	m.put("cluster.view_lag_frames_p50", median(lag), len(lag))
	stageNs := func(s telemetry.Stage) float64 {
		vs := make([]float64, len(withTrace))
		for i, p := range withTrace {
			vs[i] = p.stageNs[s] / float64(p.frames)
		}
		return median(vs)
	}
	m.put("sieve.stage_pull_ns", stageNs(telemetry.StagePull), len(withTrace))
	m.put("sieve.stage_encode_ns", stageNs(telemetry.StageEncode), len(withTrace))
	m.put("sieve.stage_infer_ns", stageNs(telemetry.StageInfer), len(withTrace))
	m.put("sieve.stage_ship_ns", stageNs(telemetry.StageShip), len(withTrace))
	m.put("sieve.stage_merge_ns", stageNs(telemetry.StageMerge), len(withTrace))

	// R: the layer replay.
	putReplayLayers(m, rec, ref)
	svar := 0.0
	if cfg.split {
		svar = svarCodec(e.det, rcfg.batch, cfg.cut, e.sc.clip, rec)
	}
	m.put("nn.svar_codec_ns_per_frame", svar, 0)
	if ref.iframes > 0 {
		m.put("nn.svar_bytes_per_frame", float64(ref.svarRec)/float64(ref.iframes), ref.iframes)
		// What a frame's infer stage spends beyond its own decode and forward:
		// waiting in the plane for siblings and for the serialised forward.
		inferPerI := stageNs(telemetry.StageInfer) * frames / iframes
		own := m.values["codec.idecode_ns_per_iframe"] + m.values["nn.forward_ns_per_frame"] +
			m.values["nn.split_edge_ns_per_frame"] + m.values["nn.split_cloud_ns_per_frame"]
		m.put("infer.wait_ns_per_iframe", inferPerI-own, ref.iframes)
	}
	// Glue: in-situ CPU per frame minus everything the replay attributes
	// to a layer.
	var layered int64
	for _, s := range rec.spans {
		if s.Layer != "sieve" && s.Call != "svar_encode" && s.Call != "svar_decode" {
			layered += s.EndNs - s.StartNs
		}
	}
	r.putGlue(plain[len(plain)-1].cpuPerFrame(), float64(layered)/float64(ref.frames))

	putKernels(m, e.sc)
}

// putReplayLayers turns the replay's spans into per-layer metrics.
func putReplayLayers(m *metricSet, rec *recorder, ref *replayResult) {
	perIFrame := func(name, call string) {
		cs := rec.stats("nn", call)
		v := 0.0
		if ref.iframes > 0 {
			v = float64(cs.total) / float64(ref.iframes)
		}
		m.put(name, v, cs.n)
	}
	m.putMean("codec.encode_p_ns_per_frame", rec, "codec", "encode_p")
	m.putMean("codec.encode_i_ns_per_frame", rec, "codec", "encode_i")
	m.putMean("codec.idecode_ns_per_iframe", rec, "codec", "idecode")
	m.putMean("container.write_ns_per_frame", rec, "container", "write")
	m.putMean("container.close_ns", rec, "container", "close")
	if ref.frames > 0 {
		m.put("container.alloc_bytes_per_frame", float64(ref.writeAlc)/float64(ref.frames), ref.frames)
	}
	perIFrame("nn.forward_ns_per_frame", "forward")
	perIFrame("nn.split_edge_ns_per_frame", "split_edge")
	perIFrame("nn.split_cloud_ns_per_frame", "split_cloud")
	m.putMean("store.put_ns_per_detection", rec, "store", "put")
	m.putMean("store.delta_ns_per_sync", rec, "store", "delta_since")
	m.putMean("store.edge_put_ns_per_stream", rec, "store", "edge_put")
	m.putMean("cluster.ship_ns_per_detection", rec, "cluster", "ship_detection")
	m.putMean("cluster.ship_delta_ns_per_sync", rec, "cluster", "ship_delta")
	m.putMean("cluster.merge_ns", rec, "cluster", "merge")
}

func putKernels(m *metricSet, sc *scene) {
	kt := kernels(sc)
	m.put("transform.fdct_ns_per_block", kt.fdct, 0)
	m.put("transform.idct_ns_per_block", kt.idct, 0)
	m.put("transform.quant_ns_per_block", kt.quant, 0)
	m.put("transform.blocks_per_frame", kt.blocksPerFrame, 0)
	m.put("frame.sad16_ns_per_call", kt.sad16, 0)
	m.put("bitstream.write_ue_ns", kt.writeUE, 0)
	m.put("bitstream.read_ue_ns", kt.readUE, 0)
}
