package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"sieve"
	"sieve/internal/nn"
	"sieve/internal/synth"
	"sieve/internal/telemetry/debughttp"
	"sieve/internal/tuner"
)

const clusterUsage = `usage: sieve cluster [flags]

Run N camera feeds sharded across K edge sites with a cloud results-merge
plane: each site is a hub with its own worker pool, results-database shard
and edge store; detections ship upstream over a metered per-site uplink and
the cloud coordinator merges the shards into one conflict-checked global
view. The report shows per-site load, uplink accounting, and the merged
database, plus the cluster-wide filter rate.

Feeds cycle through the Table I presets with per-feed seeds and run on
virtual clocks, so a given flag set reproduces byte-identical merged
results on every run.

With -batch N, every site runs one shared batched-inference plane: its
feeds micro-batch their I-frames through a single detector forward pass
(flushed at N frames, or sooner when every running feed is blocked), and
the report adds the amortisation line. Results are byte-identical to the
per-feed detector path.

With -split, each site's batched forward is partitioned across its uplink:
the edge runs the first K layers, the intermediate activation ships over
the site's metered uplink, and the cloud finishes the network. -split auto
tunes K per site from the detector's layer profile and the site's observed
bandwidth (re-evaluated when faults move the bottleneck); -split K fixes
the cut for every site. K at or past the network depth degrades to the
all-edge path, and a partitioned uplink falls back to edge recompute per
batch — the merged results are byte-identical in every case. -split
implies the shared per-site plane (-batch defaults to 4 if unset).

With -faults, a deterministic fault script runs against the cluster:
site crashes, uplink partitions and load skew fire at exact encoded-frame
counts. Crashed sites' feeds fail over to survivors and resume from the
EdgeStore replica at an I-frame boundary; the report adds the failover
ledger and any sites left degraded. The script grammar is
kind:site:feed@frame[:factor] (kinds: crash, recover, linkdown, linkup,
degrade, skew), semicolon-separated.

The run is observable without being perturbed: -debug-addr serves live
Prometheus metrics at /metrics (plus /debug/pprof/ and /debug/vars)
while the run lasts, and -trace writes a frame-anchored Chrome trace
loadable in Perfetto (summarise it with 'sieve trace'). Under the
default virtual trace clock the trace file is byte-identical run to
run, exactly like the merged results; -trace-clock wall turns it into a
real profile instead.

examples:
  sieve cluster -feeds 6 -sites 3                 # hash sharding, 30 Mbps uplinks
  sieve cluster -feeds 8 -sites 4 -sharder leastbusy
  sieve cluster -feeds 6 -sites 3 -batch 4 -workers 2   # shared per-site batched
                  # inference (feeds batch only while running concurrently, so give
                  # each site >1 worker to see amortisation on a small box)
  sieve cluster -feeds 6 -sites 3 -split auto     # per-site tuned edge/cloud cut
  sieve cluster -feeds 6 -sites 3 -split 4 -uplink-mbps 10   # fixed cut, thin pipe
  sieve cluster -feeds 6 -sites 2 -detect=false   # skip detector training
  sieve cluster -feeds 6 -sites 3 -faults 'crash:site1:cam1-highway@40'
                  # kill site1 mid-run; its feeds replay onto survivors
  sieve cluster -feeds 4 -sites 2 -faults 'linkdown:site0:cam0-jackson_square@20;linkup:site0:cam0-jackson_square@60'
                  # partition site0's uplink for 40 frames, then heal it
  sieve cluster -feeds 6 -sites 3 -trace trace.json -debug-addr :0
                  # live /metrics + pprof during the run, Perfetto trace after

flags:
`

func cmdCluster(args []string) {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, clusterUsage)
		fs.PrintDefaults()
	}
	feeds := fs.Int("feeds", 6, "number of camera feeds")
	sites := fs.Int("sites", 3, "number of edge sites")
	sharderName := fs.String("sharder", "hash", "placement policy: hash, roundrobin or leastbusy")
	seconds := fs.Int("seconds", 15, "seconds of video per feed (objects enter the Table I scenes after ~9s)")
	fps := fs.Int("fps", 5, "frames per second")
	gop := fs.Int("gop", 50, "GOP size (max frames between I-frames)")
	scenecut := fs.Float64("scenecut", 200, "scenecut threshold 0-400 (higher = more event I-frames)")
	quality := fs.Int("quality", 0, "encoder quality 1-100 (0 = default 85)")
	workers := fs.Int("workers", 0, "per-site concurrent feeds (default GOMAXPROCS)")
	uplinkMbps := fs.Float64("uplink-mbps", 30, "per-site edge→cloud bandwidth in Mbps")
	latency := fs.Duration("latency", 20*time.Millisecond, "per-site uplink latency")
	detect := fs.Bool("detect", true, "train a small detector and run it on I-frames")
	batch := fs.Int("batch", 0, "micro-batch I-frames through one shared forward pass per site, flushing at this size (0 = per-feed detectors)")
	split := fs.String("split", "", "partition each site's forward across its uplink: auto (per-site tuned cut) or a fixed layer index (\"\" = all edge)")
	faults := fs.String("faults", "", "deterministic fault script: kind:site:feed@frame[:factor], semicolon-separated")
	syncEvery := fs.Int("sync-every", 8, "ship incremental shard deltas to the cloud every N detections")
	out := fs.String("out", "", "write the merged results database JSON here (optional)")
	traceOut := fs.String("trace", "", "write a frame-anchored Chrome trace_event JSON profile here (optional)")
	traceClock := fs.String("trace-clock", "virtual", "trace timestamp source: virtual (byte-identical run to run) or wall (real profile)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/pprof/ and /debug/vars here while the run lasts (:0 picks a port)")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	_ = fs.Parse(args)
	if *feeds < 1 || *sites < 1 {
		log.Fatal("need -feeds >= 1 and -sites >= 1")
	}
	sharder, err := sieve.SharderByName(*sharderName)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// One detector serves the whole fleet (inference is read-only). The
	// head is trained quickly on an independent labelled clip; with
	// -detect=false the run degrades to pure I-frame accounting.
	var det *sieve.Detector
	if *detect {
		start := time.Now()
		det = trainFleetDetector()
		fmt.Printf("trained detector in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if *batch > 0 && det == nil {
		log.Fatal("-batch needs -detect (there is no inference to batch)")
	}
	splitCut, splitOn := 0, false
	if *split != "" {
		if det == nil {
			log.Fatal("-split needs -detect (there is no forward pass to partition)")
		}
		splitOn = true
		if *split == "auto" {
			splitCut = sieve.SplitAuto
		} else {
			k, err := strconv.Atoi(*split)
			if err != nil || k < 0 {
				log.Fatalf("-split wants auto or a non-negative layer index, got %q", *split)
			}
			splitCut = k
		}
		if *batch < 1 {
			*batch = 4 // the split plane is a shared plane; give it a batch to amortise
		}
	}

	// The registry is always attached: recording is allocation-free, the
	// stats snapshot reads through it anyway, and it is what -debug-addr
	// scrapes mid-run.
	reg := sieve.NewRegistry()
	copts := []sieve.ClusterOption{
		sieve.WithSharder(sharder),
		sieve.WithSiteWorkers(*workers),
		sieve.WithUplink(*uplinkMbps*1e6, *latency),
		sieve.WithDeltaSync(*syncEvery, 4),
		sieve.WithClusterTelemetry(reg),
	}
	var tracer *sieve.Tracer
	if *traceOut != "" {
		var tclk sieve.Clock
		switch *traceClock {
		case "virtual":
			tclk = sieve.NewVirtualClock(time.Unix(0, 0).UTC())
		case "wall":
			// nil selects the wall clock inside NewTracer.
		default:
			log.Fatalf("unknown -trace-clock %q (want virtual or wall)", *traceClock)
		}
		tracer = sieve.NewTracer(tclk)
		copts = append(copts, sieve.WithClusterTrace(tracer))
	}
	var plan *sieve.FaultPlan
	if *faults != "" {
		plan, err = sieve.ParseFaultPlan(*faults)
		if err != nil {
			log.Fatal(err)
		}
		copts = append(copts, sieve.WithFaultPlan(plan))
	}
	if splitOn {
		// Shared per-site planes with the forward itself partitioned across
		// the uplink at splitCut (SplitAuto tunes each site separately).
		copts = append(copts, sieve.WithSplitInference(det, *batch, splitCut))
	} else if *batch > 0 {
		// One shared plane per site: feeds micro-batch their I-frames
		// through a single forward pass instead of per-feed detector calls.
		copts = append(copts, sieve.WithClusterInference(det, *batch))
	}
	c, err := sieve.NewCluster(*sites, copts...)
	if err != nil {
		log.Fatal(err)
	}
	if *debugAddr != "" {
		dbg, err := debughttp.Start(*debugAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("debug surface on http://%s  (/metrics, /debug/pprof/, /debug/vars)\n", dbg.Addr())
	}

	presets := synth.AllPresets()
	placement := make(map[string][]string) // site -> feed names
	for i := 0; i < *feeds; i++ {
		preset := presets[i%len(presets)]
		name := fmt.Sprintf("cam%d-%s", i, preset)
		v, err := synth.Preset(preset, synth.PresetOpts{Seconds: *seconds, FPS: *fps, Seed: uint64(i + 1)})
		if err != nil {
			log.Fatal(err)
		}
		spec := v.Spec()
		params := sieve.EncoderParams{
			Width: spec.Width, Height: spec.Height,
			GOPSize: *gop, Scenecut: *scenecut, MinGOP: tuner.DefaultMinGOP,
		}
		opts := []sieve.SessionOption{
			sieve.WithTunedParams(params),
			sieve.WithClock(sieve.NewVirtualClock(time.Unix(0, 0).UTC())),
		}
		if *quality != 0 {
			opts = append(opts, sieve.WithQuality(*quality))
		}
		if det != nil && *batch == 0 {
			// With -batch the site's shared plane handles inference; the
			// per-feed detector is the un-amortised baseline.
			opts = append(opts, sieve.WithDetector(det))
		}
		_, site, err := c.AddFeed(name, sieve.NewSynthSource(v), opts...)
		if err != nil {
			log.Fatal(err)
		}
		placement[site] = append(placement[site], name)
	}

	if plan != nil {
		// A typo'd site or feed name would make the whole script a silent
		// no-op; fail loudly before the run instead.
		feedNames := make(map[string]bool)
		for _, names := range placement {
			for _, n := range names {
				feedNames[n] = true
			}
		}
		siteNames := make(map[string]bool)
		for i := 0; i < *sites; i++ {
			siteNames[fmt.Sprintf("site%d", i)] = true
		}
		for _, ev := range plan.Events() {
			if !feedNames[ev.Trigger.Feed] {
				log.Fatalf("fault %q triggers on unknown feed %q (feeds are named cam<N>-<preset>)", ev, ev.Trigger.Feed)
			}
			if !siteNames[ev.Site] {
				log.Fatalf("fault %q targets unknown site %q (sites are named site0..site%d)", ev, ev.Site, *sites-1)
			}
		}
	}

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range c.Events() {
		}
	}()
	start := time.Now()
	runErr := c.Run(ctx)
	wall := time.Since(start)
	<-drained

	st := c.Snapshot()
	fmt.Printf("\n%d feeds over %d sites (sharder=%s) in %v — %d frames (%.1f frames/s aggregate)\n",
		*feeds, *sites, sharder.Name(), wall.Round(time.Millisecond),
		st.Frames, float64(st.Frames)/wall.Seconds())
	fmt.Printf("%-8s %6s %8s %8s %8s %12s %12s %12s %10s\n",
		"site", "feeds", "frames", "iframes", "filter", "payload-B", "uplink-B", "uplink-busy", "stored-B")
	for _, ss := range st.Sites {
		fmt.Printf("%-8s %6d %8d %8d %8.4f %12d %12d %12s %10d\n",
			ss.Site, len(ss.Hub.Feeds), ss.Hub.Frames, ss.Hub.IFrames, ss.Hub.FilterRate(),
			ss.Hub.PayloadBytes, ss.UplinkBytes, ss.UplinkBusy.Round(time.Microsecond), ss.StoredBytes)
		if len(placement[ss.Site]) > 0 {
			fmt.Printf("%-8s   %s\n", "", strings.Join(placement[ss.Site], ", "))
		}
		if ss.Err != "" {
			fmt.Printf("%-8s   error: %s\n", "", ss.Err)
		}
	}
	fmt.Printf("cluster filter rate %.4f — %d of %d frames never left their edge site\n",
		st.FilterRate(), st.Frames-st.IFrames, st.Frames)
	if *batch > 0 {
		inf := st.Inference
		fmt.Printf("shared inference (batch %d, per site): %d I-frames in %d forward passes — %.2f frames/pass amortised, largest batch %d\n",
			*batch, inf.Frames, inf.Batches, inf.MeanBatch(), inf.MaxBatch)
	}
	if splitOn {
		sp := st.Split
		fmt.Printf("split inference: %d batch(es) split across the uplink, %d B activations shipped, %d edge fallback(s); modelled edge %v + cloud %v\n",
			sp.SplitBatches, sp.ActivationBytes, sp.Fallbacks,
			sp.EdgeTime.Round(time.Microsecond), sp.CloudTime.Round(time.Microsecond))
		var cuts []string
		for _, ss := range st.Sites {
			cuts = append(cuts, fmt.Sprintf("%s=%d/%d (%d B)",
				ss.Site, ss.Split.Cut, ss.Split.NumLayers, ss.Split.ActivationBytes))
		}
		fmt.Printf("  per-site cut (edge layers / depth): %s\n", strings.Join(cuts, "  "))
	}

	if *faults != "" {
		fmt.Printf("faults: %d crash(es), %d recovery(ies), %d feed(s) migrated, %d lost, %d frames replayed, %d delta syncs (%d retries)\n",
			st.Crashes, st.Recoveries, st.MigratedFeeds, st.LostFeeds, st.ReplayedFrames, st.DeltaSyncs, st.SyncRetries)
		for _, fo := range st.Failovers {
			fmt.Printf("  failover: %s  %s -> %s  resumed at frame %d (%d frames replayed)\n",
				fo.Feed, fo.From, fo.To, fo.ResumeFrame, fo.ReplayedFrames)
		}
		for _, d := range st.Degraded {
			fmt.Printf("  degraded: %s — %s\n", d.Site, d.Reason)
		}
	}

	merged, err := c.Merged()
	if err != nil {
		log.Fatal(err)
	}
	cams := merged.Cameras()
	fmt.Printf("cloud merge: %d cameras, %d (camera, frame) entries from %d shipped detections\n",
		len(cams), merged.Len(), st.Detections)
	if det != nil && len(cams) > 0 {
		// Cross-camera queries off the merged view: per class, how many
		// propagated frames show it anywhere in the fleet?
		var parts []string
		for _, class := range det.Classes() {
			total := 0
			for _, cam := range cams {
				hits, err := c.Query(cam, class, 0, *seconds**fps)
				if err != nil {
					log.Fatal(err)
				}
				total += len(hits)
			}
			parts = append(parts, fmt.Sprintf("%s=%d", class, total))
		}
		fmt.Printf("cross-camera query hits (propagated frames, all cameras): %s\n",
			strings.Join(parts, " "))
	}
	if *out != "" {
		if err := merged.Save(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote merged results database to %s\n", *out)
	}
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := tracer.WriteChrome(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d trace spans to %s — load in Perfetto or chrome://tracing, or run 'sieve trace %s'\n",
			tracer.Len(), *traceOut, *traceOut)
	}
	if runErr != nil {
		log.Fatal(runErr)
	}
}

// trainFleetDetector fits the reference detector's head on an
// independent labelled clip (fixed seed, so the whole run stays
// deterministic). Shared by `sieve cluster` and `sieve stream -batch`.
func trainFleetDetector() *sieve.Detector {
	train, err := synth.Preset(synth.JacksonSquare, synth.PresetOpts{Seconds: 20, FPS: 5, Seed: 7})
	if err != nil {
		log.Fatal(err)
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
		log.Fatal(err)
	}
	return det
}
