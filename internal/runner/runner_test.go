package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapKeepsInputOrder(t *testing.T) {
	p := New(8)
	out, err := Map(context.Background(), p, 100, func(_ context.Context, i int) (int, error) {
		if i%7 == 0 {
			time.Sleep(time.Millisecond) // shuffle completion order
		}
		return i * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("len = %d", len(out))
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*2)
		}
	}
}

func TestMapRespectsBound(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	p := New(workers)
	_, err := Map(context.Background(), p, 50, func(_ context.Context, i int) (struct{}, error) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		inFlight.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds bound %d", got, workers)
	}
}

func TestMapFirstErrorCancelsRest(t *testing.T) {
	boom := errors.New("boom")
	var cancelled atomic.Int64
	var started atomic.Int64
	release := make(chan struct{})
	p := New(4)
	_, err := Map(context.Background(), p, 32, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 2 {
			close(release) // let the blocked tasks observe cancellation
			return 0, fmt.Errorf("task %d: %w", i, boom)
		}
		select {
		case <-ctx.Done():
			cancelled.Add(1)
			return 0, ctx.Err()
		case <-release:
			// The failing task has fired; wait for our cancellation.
			<-ctx.Done()
			cancelled.Add(1)
			return 0, ctx.Err()
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if cancelled.Load() == 0 {
		t.Fatal("no concurrent task observed cancellation")
	}
	// Far fewer tasks than 32 should have started: cancellation stops claims.
	if started.Load() > 8 {
		t.Fatalf("%d tasks started after failure; claiming should stop", started.Load())
	}
}

func TestMapReportsRootCauseNotCancellation(t *testing.T) {
	// The failing task's error is reported even when lower-index tasks
	// subsequently return the cancellation they observed.
	boom := errors.New("root cause")
	var wg sync.WaitGroup
	wg.Add(2)
	p := New(2)
	_, err := Map(context.Background(), p, 2, func(ctx context.Context, i int) (int, error) {
		wg.Done()
		wg.Wait() // both running before either returns
		if i == 1 {
			return 0, boom
		}
		<-ctx.Done() // task 0 outlives the failure and reports cancellation
		return 0, ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want root cause %v", err, boom)
	}
}

func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	p := New(2)
	done := make(chan error, 1)
	go func() {
		_, err := Map(ctx, p, 1000, func(ctx context.Context, i int) (int, error) {
			ran.Add(1)
			select {
			case <-ctx.Done():
			case <-time.After(50 * time.Microsecond):
			}
			return i, nil
		})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n == 1000 {
		t.Fatal("cancellation did not stop the run early")
	}
}

func TestMapSequentialFastPath(t *testing.T) {
	// One worker must execute strictly in order with no goroutines.
	var order []int
	out, err := Map(context.Background(), New(1), 10, func(_ context.Context, i int) (int, error) {
		order = append(order, i) // safe: sequential path is single-threaded
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i || out[i] != i {
			t.Fatalf("sequential order broken at %d: %v", i, order)
		}
	}
}

func TestMapEdgeCases(t *testing.T) {
	p := New(4)
	if out, err := Map(context.Background(), p, 0, func(_ context.Context, i int) (int, error) { return i, nil }); err != nil || len(out) != 0 {
		t.Fatalf("n=0: out=%v err=%v", out, err)
	}
	if _, err := Map(context.Background(), p, -1, func(_ context.Context, i int) (int, error) { return i, nil }); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := Map[int](context.Background(), p, 3, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
	// nil context and nil pool both work.
	var nilPool *Pool
	out, err := Map(nil, nilPool, 3, func(_ context.Context, i int) (int, error) { return i + 1, nil }) //nolint:staticcheck
	if err != nil || len(out) != 3 || out[2] != 3 {
		t.Fatalf("nil ctx/pool: out=%v err=%v", out, err)
	}
}

func TestWorkers(t *testing.T) {
	if New(5).Workers() != 5 {
		t.Fatal("explicit worker count not respected")
	}
	if New(0).Workers() < 1 || (*Pool)(nil).Workers() < 1 {
		t.Fatal("defaulted worker count must be positive")
	}
}

func TestMapSlice(t *testing.T) {
	items := []string{"a", "bb", "ccc"}
	out, err := MapSlice(context.Background(), New(2), items, func(_ context.Context, s string) (int, error) {
		return len(s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("out = %v", out)
	}
}

// BenchmarkMapOverhead measures the pool's fixed cost per fan-out with
// trivial tasks — the price every parallelised loop pays up front.
func BenchmarkMapOverhead(b *testing.B) {
	p := New(4)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Map(ctx, p, 64, func(_ context.Context, j int) (int, error) {
			return j, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNestedFanOut(t *testing.T) {
	// A task may fan out through the same pool without deadlock.
	p := New(2)
	out, err := Map(context.Background(), p, 4, func(ctx context.Context, i int) (int, error) {
		inner, err := Map(ctx, p, 4, func(_ context.Context, j int) (int, error) {
			return i * j, nil
		})
		if err != nil {
			return 0, err
		}
		total := 0
		for _, v := range inner {
			total += v
		}
		return total, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*6 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*6)
		}
	}
}
