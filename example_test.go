package sieve_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"time"

	"sieve"
	"sieve/internal/container"
)

// check stops an example on its first error.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// epoch is a fresh virtual clock: paced feeds run instantly, with
// timestamps a real camera would have.
func epoch() *sieve.VirtualClock { return sieve.NewVirtualClock(time.Unix(0, 0).UTC()) }

// drain consumes an event stream the example does not print.
func drain(events <-chan sieve.Event) {
	go func() {
		for range events {
		}
	}()
}

// ExampleTune is the core SiEVE loop on one camera: tune the (GOP,
// scenecut) pair whose I-frames land on the labelled events, encode the
// stream with it, then analyse the stream by seeking I-frames only — no
// P-frame is ever decoded.
func ExampleTune() {
	ctx := context.Background()
	video, err := sieve.LoadDataset("jackson_square", 16, 1)
	check(err)
	best, err := sieve.Tune(ctx, video, sieve.DefaultSweep())
	check(err)
	fmt.Printf("tuned %s: F1 %.1f%%, sampling %.2f%%\n", best.Config, 100*best.F1, 100*best.SS)

	spec := video.Spec()
	var buf container.Buffer
	_, err = sieve.EncodeStream(ctx, sieve.NewSynthSource(video), &buf,
		sieve.WithTunedParams(sieve.TunedParams(spec.Width, spec.Height, best.Config)))
	check(err)
	r, err := sieve.OpenStream(&buf, buf.Size())
	check(err)
	seeker := sieve.NewIFrameSeeker(r)
	ifr := seeker.IFrames()
	fmt.Printf("%d I-frames of %d frames (%.1f%% filtered)\n",
		len(ifr), r.NumFrames(), 100*seeker.FilterRate())
	for _, m := range ifr {
		img, err := seeker.DecodeIFrame(m)
		check(err)
		fmt.Printf("I-frame %3d decoded alone: %dx%d, labels %q\n",
			m.Index, img.W, img.H, video.Labels(m.Index).Key())
	}
	// Output:
	// tuned gop=25 sc=40: F1 90.5%, sampling 12.50%
	// 2 I-frames of 16 frames (87.5% filtered)
	// I-frame   0 decoded alone: 600x400, labels ""
	// I-frame  12 decoded alone: 600x400, labels "truck"
}

// ExampleHub runs the three kinds of source through one hub: a live
// synthetic camera labelled by a detector as its I-frames are placed, a
// recording replayed at capture rate on a virtual clock, and frames pushed
// by a producer with backpressure.
func ExampleHub() {
	ctx := context.Background()
	hub := sieve.NewHub(sieve.WithWorkers(3))

	live, err := sieve.LoadDataset("jackson_square", 2, 3)
	check(err)
	det := sieve.NewDetector([]string{"car", "person"}, 64)
	_, err = hub.Add("live-cam", sieve.NewSynthSource(live),
		sieve.WithDetector(det), sieve.WithClock(epoch()))
	check(err)

	recorded, err := sieve.LoadDataset("jackson_square", 2, 3)
	check(err)
	var rec container.Buffer
	_, err = sieve.EncodeStream(ctx, sieve.NewSynthSource(recorded), &rec)
	check(err)
	r, err := sieve.OpenStream(&rec, rec.Size())
	check(err)
	clock := epoch()
	replay, err := sieve.NewReplaySource(r, sieve.PacedBy(clock))
	check(err)
	_, err = hub.Add("replay-cam", replay, sieve.WithClock(clock))
	check(err)

	pushed, err := sieve.LoadDataset("jackson_square", 2, 3)
	check(err)
	spec := pushed.Spec()
	push := sieve.NewPushSource("push-cam", spec.Width, spec.Height, spec.FPS, 4)
	_, err = hub.Add("push-cam", push, sieve.WithClock(epoch()))
	check(err)
	go func() {
		for i := 0; i < pushed.NumFrames(); i++ {
			if push.Push(ctx, pushed.Frame(i)) != nil {
				return
			}
		}
		push.Close(nil)
	}()

	drain(hub.Events())
	check(hub.Run(ctx))
	st := hub.Snapshot()
	for _, f := range st.Feeds {
		fmt.Printf("%-14s frames=%d iframes=%d detections=%d filter=%.2f\n",
			f.Feed, f.Frames, f.IFrames, f.Detections, f.FilterRate())
	}
	fmt.Printf("%d of %d frames would reach the detector\n", st.IFrames, st.Frames)
	// Output:
	// live-cam       frames=6 iframes=1 detections=1 filter=0.83
	// replay-cam     frames=6 iframes=1 detections=0 filter=0.83
	// push-cam       frames=6 iframes=1 detections=0 filter=0.83
	// 3 of 18 frames would reach the detector
}

// ExampleWithHubInference shares one detector between a hub's feeds: the
// I-frames of concurrent feeds reach it in batches, with the labels
// per-frame detection would give.
func ExampleWithHubInference() {
	det := sieve.NewDetector([]string{"car", "person"}, 64)
	hub := sieve.NewHub(sieve.WithWorkers(4), sieve.WithHubInference(det, 4))
	for _, name := range []string{"cam0", "cam1", "cam2", "cam3"} {
		v, err := sieve.LoadDataset("jackson_square", 2, 3)
		check(err)
		_, err = hub.Add(name, sieve.NewSynthSource(v), sieve.WithClock(epoch()))
		check(err)
	}
	drain(hub.Events())
	check(hub.Run(context.Background()))
	fmt.Println(hub.Snapshot().Inference)
	// Output: 4 frames in 1 batches (mean 4.00, max 4)
}

// ExampleCluster places feeds on the least busy of two edge sites, merges
// the sites' results into one cloud view, queries it across cameras, and
// finds where each camera's replay starts — on whichever site stores it.
func ExampleCluster() {
	c, err := sieve.NewCluster(2, sieve.WithSharder(sieve.ShardLeastBusy()))
	check(err)
	det := sieve.NewDetector([]string{"car", "person"}, 64)
	cams := []string{"garage-north", "garage-south", "lot-east"}
	for i, name := range cams {
		v, err := sieve.LoadDataset("jackson_square", 1+i, 5)
		check(err)
		_, site, err := c.AddFeed(name, sieve.NewSynthSource(v), sieve.WithDetector(det), sieve.WithClock(epoch()),
			sieve.WithTunedParams(sieve.EncoderParams{Width: 600, Height: 400, GOPSize: 3, MinGOP: 2}))
		check(err)
		fmt.Printf("%s placed on %s\n", name, site)
	}
	drain(c.Events())
	check(c.Run(context.Background()))

	for _, ss := range c.Snapshot().Sites {
		fmt.Printf("%s: feeds=%d frames=%d iframes=%d\n",
			ss.Site, len(ss.Hub.Feeds), ss.Hub.Frames, ss.Hub.IFrames)
	}
	for _, name := range cams {
		hits, err := c.Query(name, "car", 0, 1000)
		check(err)
		m, site, err := c.SeekEvent(name, 4)
		check(err)
		fmt.Printf("%s: %d frames show a car; frame 4 replays from I-frame %d on %s\n", name, len(hits), m.Index, site)
	}
	// Output:
	// garage-north placed on site0
	// garage-south placed on site1
	// lot-east placed on site0
	// site0: feeds=2 frames=20 iframes=7
	// site1: feeds=1 frames=10 iframes=4
	// garage-north: 0 frames show a car; frame 4 replays from I-frame 3 on site0
	// garage-south: 0 frames show a car; frame 4 replays from I-frame 3 on site1
	// lot-east: 0 frames show a car; frame 4 replays from I-frame 3 on site0
}

// ExampleWithFaultPlan kills an edge site mid-run. The cloud detects the
// dead site, its feed fails over to a survivor that resumes from the dead
// site's replica at an I-frame boundary, and the merged results come out
// byte-identical to a fault-free run of the same fleet.
func ExampleWithFaultPlan() {
	det := sieve.NewDetector([]string{"car", "person"}, 64)
	run := func(opts ...sieve.ClusterOption) ([]byte, sieve.ClusterStats) {
		opts = append(opts, sieve.WithSharder(sieve.ShardRoundRobin()), sieve.WithDeltaSync(1, 4))
		c, err := sieve.NewCluster(3, opts...)
		check(err)
		for _, name := range []string{"cam-north", "cam-south", "cam-east"} {
			v, err := sieve.LoadDataset("jackson_square", 2, 4)
			check(err)
			_, _, err = c.AddFeed(name, sieve.NewSynthSource(v), sieve.WithDetector(det), sieve.WithClock(epoch()),
				sieve.WithTunedParams(sieve.EncoderParams{Width: 600, Height: 400, GOPSize: 3, MinGOP: 2}))
			check(err)
		}
		drain(c.Events())
		check(c.Run(context.Background()))
		merged, err := c.Merged()
		check(err)
		data, err := merged.MarshalIndent()
		check(err)
		return data, c.Snapshot()
	}

	faultFree, _ := run()
	// site1 dies as cam-south encodes its seventh frame, I-frame 6. The
	// cloud holds the detections up to I-frame 3, so the survivor resumes
	// at I-frame 6, however far the dying site got past it.
	plan, err := sieve.ParseFaultPlan("crash:site1:cam-south@7")
	check(err)
	crashed, st := run(sieve.WithFaultPlan(plan))
	for _, fo := range st.Failovers {
		fmt.Printf("failover: %s %s -> %s, resumed at frame %d, %d frames replayed\n",
			fo.Feed, fo.From, fo.To, fo.ResumeFrame, fo.ReplayedFrames)
	}
	for _, d := range st.Degraded {
		fmt.Printf("degraded: %s: %s\n", d.Site, d.Reason)
	}
	fmt.Println("merged results equal the fault-free run's:", bytes.Equal(faultFree, crashed))
	// Output:
	// failover: cam-south site1 -> site2, resumed at frame 6, 2 frames replayed
	// degraded: site1: crashed; feeds failing over; no final report; merged streamed replica at cursor 2
	// merged results equal the fault-free run's: true
}

// cutConn is a camera uplink that cuts out after a set number of written
// bytes: the write that would cross the budget closes the connection.
type cutConn struct {
	net.Conn
	budget int
}

func (c *cutConn) Write(p []byte) (int, error) {
	if len(p) > c.budget {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	c.budget -= len(p)
	return c.Conn.Write(p)
}

// ExamplePusher_RunRetry pushes a camera over an uplink that cuts out
// mid-stream. RunRetry redials, resumes from the server's cursor, and the
// server stores the whole stream. The listener is in-memory; a TCP
// listener and net.Dial work the same way.
func ExamplePusher_RunRetry() {
	ln := sieve.NewMemListener()
	hub := sieve.NewHub(sieve.WithListener(sieve.NewIngestListener(ln, sieve.WithExpectedFeeds(1))))
	drain(hub.Events())
	runErr := make(chan error, 1)
	go func() { runErr <- hub.Run(context.Background()) }()

	v, err := sieve.LoadDataset("jackson_square", 2, 5)
	check(err)
	p := sieve.NewPusher(sieve.NewSynthSource(v), sieve.WithPusherName("gate-cam"),
		sieve.WithPusherBackoff(10*time.Millisecond, 100*time.Millisecond, 3),
		sieve.WithPusherClock(epoch()))
	cut := false
	err = p.RunRetry(context.Background(), func(context.Context) (net.Conn, error) {
		conn, err := ln.Dial()
		if err == nil && !cut {
			cut = true // the first connection dies after about four frames
			conn = &cutConn{Conn: conn, budget: 4 * 600 * 400 * 3 / 2}
		}
		return conn, err
	})
	check(err)
	check(<-runErr)

	ps := p.Stats()
	fmt.Printf("pusher: %d connections, %d resumed, close %s\n", ps.Attempts, ps.Reconnects, ps.CloseReason)
	f := hub.Snapshot().Feeds[0]
	fmt.Printf("server: %s stored %d of %d frames\n", f.Feed, f.Frames, v.NumFrames())
	// Output:
	// pusher: 2 connections, 1 resumed, close END_OF_STREAM
	// server: gate-cam stored 10 of 10 frames
}

// ExampleSession streams a synthetic Table I feed through the semantic
// encoder, consuming the typed event stream while Run drives the codec.
func ExampleSession() {
	v, err := sieve.LoadDataset("jackson_square", 2, 5)
	check(err)
	sess, err := sieve.NewSession(sieve.NewSynthSource(v), sieve.WithName("square-cam"), sieve.WithClock(epoch()))
	check(err)
	encoded := make(chan int, 1)
	go func() {
		n := 0
		for ev := range sess.Events() {
			if ev.Kind == sieve.EventFrameEncoded {
				n++
			}
		}
		encoded <- n
	}()
	check(sess.Run(context.Background()))
	st := sess.Stats()
	fmt.Printf("feed=%s frames=%d iframes=%d events=%d\n", st.Feed, st.Frames, st.IFrames, <-encoded)
	// Output: feed=square-cam frames=10 iframes=1 events=10
}

// ExampleNewIngestListener wires the SVWP network ingest plane end to
// end in-process: a hub serves a listener's admission window while a
// Pusher streams a feed to it over an in-memory connection. Swap the
// MemListener for a net.Listener and the Dial for a net.Dial to cross
// machines — the protocol is identical (see PROTOCOL.md).
func ExampleNewIngestListener() {
	ln := sieve.NewMemListener()
	lst := sieve.NewIngestListener(ln, sieve.WithExpectedFeeds(1))
	hub := sieve.NewHub(sieve.WithListener(lst))
	drain(hub.Events())
	runErr := make(chan error, 1)
	go func() { runErr <- hub.Run(context.Background()) }()

	v, err := sieve.LoadDataset("jackson_square", 2, 5)
	check(err)
	p := sieve.NewPusher(sieve.NewSynthSource(v), sieve.WithPusherName("gate-cam"))
	conn, err := ln.Dial()
	check(err)
	check(p.Run(context.Background(), conn))
	check(<-runErr)
	fmt.Printf("feeds=%v frames=%d close=%s\n",
		lst.Feeds(), lst.Stats().FramesReceived, p.Stats().CloseReason)
	// Output: feeds=[gate-cam] frames=10 close=END_OF_STREAM
}
