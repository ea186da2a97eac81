package infer

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sieve/internal/frame"
	"sieve/internal/labels"
	"sieve/internal/nn"
	"sieve/internal/telemetry"
)

func testFrame(seed byte) *frame.YUV {
	f := frame.NewYUV(64, 48)
	v := seed
	for _, p := range []*frame.Plane{f.Y, f.Cb, f.Cr} {
		for i := range p.Pix {
			v = v*31 + 7
			p.Pix[i] = v
		}
	}
	return f
}

func testDetector() *nn.YOLite { return nn.NewYOLite([]string{"car"}, 32) }

// waitPending blocks until the plane has n pending requests — test-only
// introspection so scenarios can sequence "submitted but not yet flushed"
// states without timers in the plane itself.
func waitPending(t *testing.T, p *Plane, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		got := len(p.pending)
		p.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending never reached %d (at %d)", n, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchOfOneFlushesInline pins the WithDetector degenerate case: a lone
// registered client flushes every submission immediately, in its own
// goroutine, with results identical to calling the detector directly.
func TestBatchOfOneFlushesInline(t *testing.T) {
	det := testDetector()
	p := New(det, 1, telemetry.NewRegistry())
	c := p.Register()
	defer c.Close()
	for i := 0; i < 3; i++ {
		f := testFrame(byte(i))
		got, err := c.Infer(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(det.FrameLabels(f)) {
			t.Fatalf("frame %d: plane labels %v != direct %v", i, got, det.FrameLabels(f))
		}
	}
	st := p.Stats()
	if st.Batches != 3 || st.Frames != 3 || st.MaxBatch != 1 {
		t.Fatalf("stats = %+v, want 3 batches of 1", st)
	}
}

// TestFlushAtBatchSize: K concurrent submitters with batch == K must be
// able to coalesce; whatever the interleaving, every frame is inferred
// exactly once and no batch exceeds the flush size.
func TestFlushAtBatchSize(t *testing.T) {
	const clients, perClient = 4, 8
	p := New(testDetector(), clients, telemetry.NewRegistry())
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		c := p.Register()
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			defer c.Close()
			f := testFrame(byte(i))
			for j := 0; j < perClient; j++ {
				if _, err := c.Infer(context.Background(), f); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	st := p.Stats()
	if st.Frames != clients*perClient {
		t.Fatalf("frames = %d, want %d", st.Frames, clients*perClient)
	}
	if st.MaxBatch > clients {
		t.Fatalf("max batch %d exceeds flush size %d", st.MaxBatch, clients)
	}
	if st.Batches < int64(clients*perClient/clients) {
		t.Fatalf("batches = %d, impossible for %d frames at batch %d",
			st.Batches, st.Frames, clients)
	}
}

// TestFlushWhenAllRegisteredBlocked: with a flush size far above the
// number of submitters, a batch still flushes the moment every registered
// submitter is blocked — the timer-free starvation guard.
func TestFlushWhenAllRegisteredBlocked(t *testing.T) {
	p := New(testDetector(), 100, telemetry.NewRegistry())
	a, b := p.Register(), p.Register()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	for _, c := range []*Client{a, b} {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			if _, err := c.Infer(context.Background(), testFrame(1)); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait() // would deadlock if only BatchSize triggered flushes
	if st := p.Stats(); st.Frames != 2 {
		t.Fatalf("frames = %d, want 2", st.Frames)
	}
}

// TestCloseFlushesStragglers: a submitter blocked on a partial batch is
// released when the other registered client deregisters (end of its feed),
// because "everyone remaining is blocked" then holds.
func TestCloseFlushesStragglers(t *testing.T) {
	p := New(testDetector(), 100, telemetry.NewRegistry())
	a, b := p.Register(), p.Register()
	defer a.Close()
	got := make(chan error, 1)
	go func() {
		_, err := a.Infer(context.Background(), testFrame(2))
		got <- err
	}()
	waitPending(t, p, 1) // a is submitted and blocked; b is "running"
	b.Close()            // b's feed ends — a must not wait forever
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Batches != 1 || st.Frames != 1 {
		t.Fatalf("stats = %+v, want one batch of one", st)
	}
}

// TestInferContextCancel: a cancelled submitter gets ctx.Err, its request
// is withdrawn, and the client is dead afterwards; the remaining submitter
// is unaffected.
func TestInferContextCancel(t *testing.T) {
	p := New(testDetector(), 3, telemetry.NewRegistry())
	a, b := p.Register(), p.Register()
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := a.Infer(ctx, testFrame(3))
		got <- err
	}()
	waitPending(t, p, 1)
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Infer returned %v, want context.Canceled", err)
	}
	if _, err := a.Infer(context.Background(), testFrame(3)); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Infer on abandoned client returned %v, want ErrClientClosed", err)
	}
	// a deregistered on cancellation, so b alone can make progress.
	if _, err := b.Infer(context.Background(), testFrame(4)); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Frames != 1 {
		t.Fatalf("frames = %d, want only b's (the cancelled request was withdrawn)", st.Frames)
	}
}

// TestPlaneResultsMatchDirectDetection hammers one plane from many
// goroutines and checks every result against the unshared per-frame path
// (order-independence of batching: each submitter always gets the labels
// of its own frame).
func TestPlaneResultsMatchDirectDetection(t *testing.T) {
	det := testDetector()
	want := make([]labels.Set, 6)
	for i := range want {
		want[i] = det.FrameLabels(testFrame(byte(10 + i)))
	}
	p := New(det, 3, telemetry.NewRegistry())
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		c := p.Register()
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			defer c.Close()
			for j := 0; j < 5; j++ {
				got, err := c.Infer(context.Background(), testFrame(byte(10+i)))
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(want[i]) {
					t.Errorf("client %d round %d: %v != %v", i, j, got, want[i])
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
}

// TestReserveHoldsPartialFlush: a reservation (Hub.Run's cold-start
// promise) keeps an early submitter's frame batched until the promised
// sibling registers and submits, then both flush as one batch.
func TestReserveHoldsPartialFlush(t *testing.T) {
	p := New(testDetector(), 4, telemetry.NewRegistry())
	p.Reserve(2)
	a := p.Register() // consumes one reservation
	defer a.Close()
	got := make(chan error, 1)
	go func() {
		_, err := a.Infer(context.Background(), testFrame(5))
		got <- err
	}()
	waitPending(t, p, 1)
	if st := p.Stats(); st.Batches != 0 {
		t.Fatalf("flushed %d batches before the reserved sibling arrived", st.Batches)
	}
	b := p.Register() // consumes the second reservation
	defer b.Close()
	if _, err := b.Infer(context.Background(), testFrame(6)); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Batches != 1 || st.Frames != 2 || st.MaxBatch != 2 {
		t.Fatalf("stats %+v, want one batch of two", st)
	}
}

// BenchmarkPlaneRoundTrip measures the plane's scheduling overhead in its
// cheapest configuration — one registered client, batch-of-1, every Infer
// an inline leader flush — i.e. what a plain WithDetector session pays on
// top of the detector forward itself.
func BenchmarkPlaneRoundTrip(b *testing.B) {
	p := New(testDetector(), 1, telemetry.NewRegistry())
	c := p.Register()
	defer c.Close()
	f := testFrame(9)
	ctx := context.Background()
	if _, err := c.Infer(ctx, f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Infer(ctx, f); err != nil {
			b.Fatal(err)
		}
	}
}
