package sieve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"sieve/internal/container"
)

// buildThreeFeedHub wires the acceptance scenario: one synth feed, one SVF
// replay feed paced by a virtual clock, one push feed, all deterministic.
// It returns the hub and a start function that launches the push producer.
func buildThreeFeedHub(t *testing.T) (*Hub, func(ctx context.Context)) {
	t.Helper()
	hub := NewHub(WithWorkers(3))

	// Feed 1: synthetic preset rendered frame-at-a-time.
	synthV := smallDataset(t)
	if _, err := hub.Add("synth", NewSynthSource(synthV), WithClock(testClock())); err != nil {
		t.Fatal(err)
	}

	// Feed 2: SVF replay of a recorded stream, paced at capture rate on a
	// virtual clock shared with its session.
	recV := smallDataset(t)
	var rec container.Buffer
	if _, err := EncodeStream(context.Background(), NewSynthSource(recV), &rec); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStream(&rec, rec.Size())
	if err != nil {
		t.Fatal(err)
	}
	replayClock := testClock()
	replay, err := NewReplaySource(r, PacedBy(replayClock))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Add("replay", replay, WithClock(replayClock)); err != nil {
		t.Fatal(err)
	}

	// Feed 3: programmatic push source.
	pushV := smallDataset(t)
	spec := pushV.Spec()
	push := NewPushSource("push", spec.Width, spec.Height, spec.FPS, 4)
	if _, err := hub.Add("push", push, WithClock(testClock())); err != nil {
		t.Fatal(err)
	}
	start := func(ctx context.Context) {
		go func() {
			for i := 0; i < pushV.NumFrames(); i++ {
				if push.Push(ctx, pushV.Frame(i)) != nil {
					return
				}
			}
			push.Close(nil)
		}()
	}
	return hub, start
}

// runHubLog runs a hub to completion and returns the event log grouped by
// feed (each feed's sub-log is in Seq order; cross-feed interleaving is
// scheduling-dependent and deliberately normalised away).
func runHubLog(t *testing.T, hub *Hub, start func(ctx context.Context)) map[string][]string {
	t.Helper()
	ctx := context.Background()
	byFeed := make(map[string][]string)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range hub.Events() {
			byFeed[ev.Feed] = append(byFeed[ev.Feed], ev.String())
		}
	}()
	start(ctx)
	if err := hub.Run(ctx); err != nil {
		t.Fatalf("hub run: %v", err)
	}
	<-done
	return byFeed
}

func TestHubThreeFeedsDeterministic(t *testing.T) {
	run := func() map[string][]string {
		hub, start := buildThreeFeedHub(t)
		return runHubLog(t, hub, start)
	}
	a, b := run(), run()
	if len(a) != 3 {
		t.Fatalf("feeds in log = %d, want 3", len(a))
	}
	for feed, log := range a {
		if len(log) == 0 {
			t.Fatalf("feed %s produced no events", feed)
		}
		other := b[feed]
		if len(log) != len(other) {
			t.Fatalf("feed %s log lengths differ: %d vs %d", feed, len(log), len(other))
		}
		for i := range log {
			if log[i] != other[i] {
				t.Fatalf("feed %s event %d differs:\n  %s\n  %s", feed, i, log[i], other[i])
			}
		}
	}
}

func TestHubFilterRatesMatchBatchSeeker(t *testing.T) {
	hub, start := buildThreeFeedHub(t)
	runHubLog(t, hub, start)
	st := hub.Snapshot()
	if len(st.Feeds) != 3 {
		t.Fatalf("snapshot feeds = %d", len(st.Feeds))
	}

	// All three feeds stream the same deterministic footage with the same
	// parameters, so each must reproduce the batch seeker's filter rate.
	v := smallDataset(t)
	spec := v.Spec()
	var buf container.Buffer
	enc, err := NewSemanticEncoder(&buf, DefaultParams(spec.Width, spec.Height), spec.FPS)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v.NumFrames(); i++ {
		if _, err := enc.Encode(v.Frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStream(&buf, buf.Size())
	if err != nil {
		t.Fatal(err)
	}
	batchRate := NewIFrameSeeker(r).FilterRate()

	var frames, iframes int
	for _, fs := range st.Feeds {
		if fs.Err != "" {
			t.Fatalf("feed %s failed: %s", fs.Feed, fs.Err)
		}
		if fs.Frames != v.NumFrames() {
			t.Fatalf("feed %s encoded %d frames, want %d", fs.Feed, fs.Frames, v.NumFrames())
		}
		if fs.FilterRate() != batchRate {
			t.Fatalf("feed %s filter rate %.4f != batch %.4f", fs.Feed, fs.FilterRate(), batchRate)
		}
		frames += fs.Frames
		iframes += fs.IFrames
	}
	if st.Frames != frames || st.IFrames != iframes {
		t.Fatalf("snapshot totals %d/%d != sums %d/%d", st.Frames, st.IFrames, frames, iframes)
	}
	if st.FilterRate() != batchRate {
		t.Fatalf("aggregate filter rate %.4f != batch %.4f", st.FilterRate(), batchRate)
	}
}

func TestHubFeedIsolation(t *testing.T) {
	hub := NewHub(WithWorkers(2))
	v := smallDataset(t)
	spec := v.Spec()

	// Bad feed: producer dies after one frame.
	bad := NewPushSource("bad", spec.Width, spec.Height, spec.FPS, 2)
	if _, err := hub.Add("bad", bad, WithClock(testClock())); err != nil {
		t.Fatal(err)
	}
	// Good feed: full synthetic stream.
	if _, err := hub.Add("good", NewSynthSource(v), WithClock(testClock())); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("rtsp reset by peer")
	go func() {
		_ = bad.Push(context.Background(), v.Frame(0))
		bad.Close(boom)
	}()
	go func() {
		for range hub.Events() {
		}
	}()
	err := hub.Run(context.Background())
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("hub error = %v, want wrapped feed error", err)
	}
	if !strings.Contains(err.Error(), "feed bad") {
		t.Fatalf("error does not name the failing feed: %v", err)
	}

	st := hub.Snapshot()
	for _, fs := range st.Feeds {
		switch fs.Feed {
		case "good":
			if fs.Err != "" {
				t.Fatalf("good feed was poisoned by bad feed: %s", fs.Err)
			}
			if fs.Frames != v.NumFrames() {
				t.Fatalf("good feed encoded %d frames, want %d (isolation broken)",
					fs.Frames, v.NumFrames())
			}
		case "bad":
			if fs.Err == "" {
				t.Fatal("bad feed error missing from snapshot")
			}
		default:
			t.Fatalf("unexpected feed %q", fs.Feed)
		}
	}
}

func TestHubParentCancellationStopsAllFeeds(t *testing.T) {
	hub := NewHub(WithWorkers(2))
	v := smallDataset(t)
	spec := v.Spec()
	// Push sources with no producers: feeds would block forever without
	// cancellation.
	for i := 0; i < 2; i++ {
		src := NewPushSource(fmt.Sprintf("p%d", i), spec.Width, spec.Height, spec.FPS, 1)
		if _, err := hub.Add(src.Info().Name, src); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	go func() {
		for range hub.Events() {
		}
	}()
	if err := hub.Run(ctx); err == nil {
		t.Fatal("cancelled hub run returned nil")
	}
}

func TestHubGuards(t *testing.T) {
	// Run with zero feeds: documented ErrNoFeeds, and Events still closes
	// so a concurrent consumer cannot hang.
	hub := NewHub()
	if err := hub.Run(context.Background()); !errors.Is(err, ErrNoFeeds) {
		t.Fatalf("empty hub Run = %v, want ErrNoFeeds", err)
	}
	if _, open := <-hub.Events(); open {
		t.Fatal("Events not closed after empty Run")
	}

	hub2 := NewHub(WithWorkers(1))
	v := smallDataset(t)
	if _, err := hub2.Add("a", NewSynthSource(v), WithClock(testClock())); err != nil {
		t.Fatal(err)
	}
	if _, err := hub2.Add("a", NewSynthSource(v)); err == nil {
		t.Fatal("duplicate feed name accepted")
	}
	go func() {
		for range hub2.Events() {
		}
	}()
	if err := hub2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Add after Run has started: documented ErrStarted, naming the feed.
	if _, err := hub2.Add("b", NewSynthSource(v)); !errors.Is(err, ErrStarted) {
		t.Fatalf("Add after Run = %v, want ErrStarted", err)
	} else if !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("ErrStarted does not name the feed: %v", err)
	}
	// Double Run: documented ErrAlreadyRun.
	if err := hub2.Run(context.Background()); !errors.Is(err, ErrAlreadyRun) {
		t.Fatalf("double Run = %v, want ErrAlreadyRun", err)
	}
}

func TestHubEmptyRunThenSecondRunStillErrAlreadyRun(t *testing.T) {
	// The zero-feed Run consumes the single shot: a later Run (even after
	// adding nothing) reports ErrAlreadyRun, not ErrNoFeeds, and must not
	// close the already-closed event channel.
	hub := NewHub()
	if err := hub.Run(context.Background()); !errors.Is(err, ErrNoFeeds) {
		t.Fatalf("first empty Run = %v, want ErrNoFeeds", err)
	}
	if err := hub.Run(context.Background()); !errors.Is(err, ErrAlreadyRun) {
		t.Fatalf("second Run = %v, want ErrAlreadyRun", err)
	}
}

// cancelledCtx returns a context that is already done: a Run under it
// attaches its listener and then fails its admission window at once.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestHubRunAfterFailedListenerAttach(t *testing.T) {
	// A Run that cannot attach its listener (another hub holds it) still
	// spends the hub's single Run: a repeat Run reports ErrAlreadyRun
	// instead of closing the event channel twice, and the feed set stays
	// frozen.
	l := NewIngestListener(NewMemListener())
	defer l.Close()
	if err := NewHub(WithListener(l)).Run(cancelledCtx()); err == nil {
		t.Fatal("Run under a cancelled context completed its admission window")
	}
	hub := NewHub(WithListener(l))
	if err := hub.Run(context.Background()); err == nil {
		t.Fatal("second owner attached a listener another hub holds")
	}
	if err := hub.Run(context.Background()); !errors.Is(err, ErrAlreadyRun) {
		t.Fatalf("repeat Run = %v, want ErrAlreadyRun", err)
	}
	if _, err := hub.Add("late", NewSynthSource(smallDataset(t))); !errors.Is(err, ErrStarted) {
		t.Fatalf("Add after a failed Run = %v, want ErrStarted", err)
	}
}

// consumedAtPull wraps a source and records, at each Next call, how many
// EventFrameEncoded events the hub's consumer has taken so far.
type consumedAtPull struct {
	FrameSource
	consumed *atomic.Int64
	atPull   []int64
}

func (s *consumedAtPull) Next(ctx context.Context) (*Frame, error) {
	s.atPull = append(s.atPull, s.consumed.Load())
	return s.FrameSource.Next(ctx)
}

// TestEventsReachConsumerAtFrameBoundary: on one P, a feed's events reach
// the Hub.Events consumer while the feed runs, not when it ends. A session
// that never blocks would leave the goroutines its sends wake queued
// behind it until it finished or sysmon preempted it; the session yields
// once per frame, so by the time it pulls frame i+2, frame i's
// EventFrameEncoded has been consumed. (One frame of slack covers the
// scheduler taking the yielding goroutine back from the global queue
// first, which it does once every 61 scheduling rounds.)
func TestEventsReachConsumerAtFrameBoundary(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var consumed atomic.Int64
	src := &consumedAtPull{FrameSource: NewSynthSource(smallDataset(t)), consumed: &consumed}
	hub := NewHub(WithWorkers(1))
	if _, err := hub.Add("cam", src, WithClock(testClock())); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range hub.Events() {
			if ev.Kind == EventFrameEncoded {
				consumed.Add(1)
			}
		}
	}()
	if err := hub.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
	if len(src.atPull) < 3 {
		t.Fatalf("%d pulls, want at least 3", len(src.atPull))
	}
	for i := 2; i < len(src.atPull); i++ {
		if got := src.atPull[i]; got < int64(i-1) {
			t.Fatalf("at the pull of frame %d the consumer had taken %d frame events, want %d (frames 0..%d)", i, got, i-1, i-2)
		}
	}
}
