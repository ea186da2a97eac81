package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sieve"
	"sieve/internal/container"
	"sieve/internal/synth"
	"sieve/internal/tuner"
)

const streamUsage = `usage: sieve stream [flags]

Run N concurrent camera feeds through the streaming hub: each feed is a
Session (semantic encoder + I-frame accounting) over its own FrameSource.
Feeds cycle through the three source kinds — synthetic render, SVF replay
(paced at capture rate) and programmatic push — and through the Table I
presets. The report compares each feed's streaming filter rate against the
batch I-frame seeker on the same stream.

With -batch N, the hub trains a small detector and shares one
batched-inference plane across every feed: I-frames from
concurrent feeds coalesce into micro-batches through a single forward
pass (up to N frames: whatever queued while the previous pass ran), and
the report adds the amortisation line. No feed waits for a batch to fill,
so a quiet feed never delays its siblings' detections; how many frames
share a pass depends on scheduling.

examples:
  sieve stream -feeds 3                        # synth + replay + push, virtual time
  sieve stream -feeds 5 -seconds 10 -fps 10    # all five presets
  sieve stream -feeds 3 -gop 50 -scenecut 200  # tuned parameters
  sieve stream -feeds 4 -batch 4               # shared batched inference
  sieve stream -feeds 3 -realtime              # pace replay on the wall clock

flags:
`

func cmdStream(args []string) {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, streamUsage)
		fs.PrintDefaults()
	}
	feeds := fs.Int("feeds", 3, "number of concurrent feeds")
	seconds := fs.Int("seconds", 5, "seconds of video per feed")
	fps := fs.Int("fps", 5, "frames per second")
	gop := fs.Int("gop", 250, "GOP size (max frames between I-frames)")
	scenecut := fs.Float64("scenecut", 40, "scenecut threshold 0-400")
	quality := fs.Int("quality", 0, "encoder quality 1-100 (0 = default 85)")
	parallel := fs.Int("parallel", 0, "feeds running at once (default GOMAXPROCS)")
	batch := fs.Int("batch", 0, "train a detector and micro-batch I-frames through one shared forward pass, flushing at this size (0 = no detection)")
	realtime := fs.Bool("realtime", false, "pace replay feeds on the wall clock instead of a virtual one")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	_ = fs.Parse(args)
	if *feeds < 1 {
		log.Fatal("need -feeds >= 1")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	hubOpts := []sieve.HubOption{sieve.WithWorkers(*parallel)}
	if *batch > 0 {
		start := time.Now()
		det := trainFleetDetector()
		fmt.Printf("trained detector in %v\n", time.Since(start).Round(time.Millisecond))
		hubOpts = append(hubOpts, sieve.WithHubInference(det, *batch))
	}
	hub := sieve.NewHub(hubOpts...)
	presets := synth.AllPresets()
	kinds := []string{"synth", "replay", "push"}
	sessions := make(map[string]*sieve.Session)
	var pushers []func()
	for i := 0; i < *feeds; i++ {
		preset := presets[i%len(presets)]
		kind := kinds[i%len(kinds)]
		name := fmt.Sprintf("feed%d-%s-%s", i, kind, preset)
		v, err := synth.Preset(preset, synth.PresetOpts{Seconds: *seconds, FPS: *fps, Seed: uint64(i)})
		if err != nil {
			log.Fatal(err)
		}
		spec := v.Spec()
		params := sieve.EncoderParams{
			Width: spec.Width, Height: spec.Height,
			GOPSize: *gop, Scenecut: *scenecut, MinGOP: tuner.DefaultMinGOP, Quality: *quality,
		}
		clock := sieve.Clock(sieve.NewVirtualClock(time.Unix(0, 0).UTC()))
		if *realtime {
			clock = sieve.RealClock()
		}

		var src sieve.FrameSource
		switch kind {
		case "synth":
			src = sieve.NewSynthSource(v)
		case "replay":
			// Record the feed first (the batch path is itself a session),
			// then replay the SVF stream paced at capture rate.
			var rec container.Buffer
			if _, err := sieve.EncodeStream(ctx, sieve.NewSynthSource(v), &rec,
				sieve.WithTunedParams(params)); err != nil {
				log.Fatal(err)
			}
			r, err := sieve.OpenStream(&rec, rec.Size())
			if err != nil {
				log.Fatal(err)
			}
			src, err = sieve.NewReplaySource(r, sieve.PacedBy(clock))
			if err != nil {
				log.Fatal(err)
			}
		case "push":
			ps := sieve.NewPushSource(name, spec.Width, spec.Height, spec.FPS, 8)
			src = ps
			pushers = append(pushers, func() {
				go func() {
					for j := 0; j < v.NumFrames(); j++ {
						if ps.Push(ctx, v.Frame(j)) != nil {
							return
						}
					}
					ps.Close(nil)
				}()
			})
		}
		opts := []sieve.SessionOption{sieve.WithTunedParams(params), sieve.WithClock(clock)}
		sess, err := hub.Add(name, src, opts...)
		if err != nil {
			log.Fatal(err)
		}
		sessions[name] = sess
	}

	counts := make(map[string]int)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range hub.Events() {
			counts[ev.Feed]++
		}
	}()
	for _, start := range pushers {
		start()
	}
	start := time.Now()
	runErr := hub.Run(ctx)
	wall := time.Since(start)
	<-drained

	st := hub.Snapshot()
	fmt.Printf("%d feeds, %d frames total in %v (%.1f frames/s aggregate)\n",
		len(st.Feeds), st.Frames, wall.Round(time.Millisecond),
		float64(st.Frames)/wall.Seconds())
	fmt.Printf("%-28s %8s %8s %12s %12s %10s %8s\n",
		"feed", "frames", "iframes", "filter-rate", "seeker-rate", "bytes", "events")
	for _, f := range st.Feeds {
		seekerRate := "-"
		if f.Err == "" {
			if sess := sessions[f.Feed]; sess != nil {
				if r, err := sess.Stream(); err == nil {
					seekerRate = fmt.Sprintf("%.4f", sieve.NewIFrameSeeker(r).FilterRate())
				}
			}
		}
		fmt.Printf("%-28s %8d %8d %12.4f %12s %10d %8d\n",
			f.Feed, f.Frames, f.IFrames, f.FilterRate(), seekerRate, f.PayloadBytes, counts[f.Feed])
		if f.Err != "" {
			fmt.Printf("%-28s   error: %s\n", "", f.Err)
		}
	}
	fmt.Printf("aggregate filter rate %.4f\n", st.FilterRate())
	if *batch > 0 {
		inf := st.Inference
		fmt.Printf("shared inference (batch %d): %d I-frames in %d forward passes — %.2f frames/pass amortised, largest batch %d\n",
			*batch, inf.Frames, inf.Batches, inf.MeanBatch(), inf.MaxBatch)
	}
	if runErr != nil {
		log.Fatal(runErr)
	}
}
