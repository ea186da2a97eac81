// Sites: the Figure 1 split scaled out with the public Cluster API — four
// cameras sharded across two edge sites (each with its own pool, results-DB
// shard and edge store), detections shipped over per-site metered uplinks,
// and a cloud coordinator merging the shards into one global view that
// answers cross-camera queries and locates replay GOPs wherever they are
// stored.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sieve"
	"sieve/internal/frame"
	"sieve/internal/nn"
	"sieve/internal/synth"
)

// scene renders one small deterministic camera: a car crossing a noisy
// background, with per-camera seed and timing (event I-frames land in
// different places on every camera).
func scene(seed uint64, enter int) *sieve.Dataset {
	v, err := synth.New(synth.Spec{
		Name: "cam", Width: 128, Height: 80, FPS: 5, NumFrames: 40,
		NoiseAmp: 1,
		Objects: []synth.Object{{
			Class: synth.Car, Enter: enter, Exit: enter + 14, Lane: 0.7, Speed: 16,
			Scale: 0.3, Color: frame.RGB{R: 200, G: 40, B: 40}, Seed: seed,
		}},
		Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func main() {
	log.SetFlags(0)
	// One small detector serves the fleet: its head is trained (fast,
	// deterministic) on an independent clip of the same scene family.
	train := scene(99, 4)
	var lab []nn.LabeledFrame
	for i := 0; i < train.NumFrames(); i++ {
		lf := nn.LabeledFrame{Frame: train.Frame(i)}
		for _, b := range train.Boxes(i) {
			lf.Boxes = append(lf.Boxes, nn.ObjectBox{Class: string(b.Class), X: b.X, Y: b.Y, W: b.W, H: b.H})
		}
		lab = append(lab, lf)
	}
	det := sieve.NewDetector([]string{"car"}, 64)
	if _, err := det.Train(lab, nn.TrainConfig{Seed: 5, Epochs: 8}); err != nil {
		log.Fatal(err)
	}

	c, err := sieve.NewCluster(2, sieve.WithSharder(sieve.ShardLeastBusy()))
	if err != nil {
		log.Fatal(err)
	}
	cams := []struct {
		name  string
		seed  uint64
		enter int
	}{
		{"garage-north", 1, 6}, {"garage-south", 2, 12},
		{"lot-east", 3, 18}, {"lot-west", 4, 9},
	}
	for _, cam := range cams {
		_, site, err := c.AddFeed(cam.name, sieve.NewSynthSource(scene(cam.seed, cam.enter)),
			sieve.WithClock(sieve.NewVirtualClock(time.Unix(0, 0).UTC())),
			sieve.WithDetector(det),
			sieve.WithTunedParams(sieve.EncoderParams{Width: 128, Height: 80, GOPSize: 20, Scenecut: 200, MinGOP: 2}))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("placed %-13s on %s\n", cam.name, site)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for range c.Events() {
		}
	}()
	if err := c.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	<-done

	st := c.Snapshot()
	for _, ss := range st.Sites {
		fmt.Printf("%s: %d feeds, %d frames, %d I-frames, %d payload bytes kept on site, %d bytes up the WAN\n",
			ss.Site, len(ss.Hub.Feeds), ss.Hub.Frames, ss.Hub.IFrames, ss.Hub.PayloadBytes, ss.UplinkBytes)
	}
	merged, err := c.Merged()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cloud merge: %d cameras, %d entries, cluster filter rate %.4f\n",
		len(merged.Cameras()), merged.Len(), st.FilterRate())

	// The merged view serves cross-camera queries; the edge stores still
	// hold the full streams for post-event analysis, wherever they live.
	for _, cam := range cams {
		hits, err := c.Query(cam.name, "car", 0, 40)
		if err != nil {
			log.Fatal(err)
		}
		if len(hits) == 0 {
			continue
		}
		m, site, err := c.SeekEvent(cam.name, hits[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query car@%-13s -> %d propagated frames; replay starts at I-frame %d on %s\n",
			cam.name, len(hits), m.Index, site)
	}
}
