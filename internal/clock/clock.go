// Package clock is the repo's one time seam: the Clock interface every
// paced, timestamped or timed path reads, the wall clock behind it, and
// the deterministic Virtual clock tests and reproducible runs inject. It
// imports nothing from the module, so the public API (which aliases these
// types) and the paper harness share it.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts time for stream pacing, event timestamps and measured
// costs. Production code uses Wall; tests and reproducible replays inject a
// Virtual clock so a paced session is both instant and deterministic.
type Clock interface {
	// Now returns the clock's current time.
	Now() time.Time
	// Sleep blocks for d on this clock, or until ctx is cancelled (in which
	// case it returns the context error).
	Sleep(ctx context.Context, d time.Duration) error
}

type wall struct{}

//sieve:wallclock this IS the wall clock behind the Clock interface
func (wall) Now() time.Time { return time.Now() }

//sieve:wallclock this IS the wall clock behind the Clock interface
func (wall) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Wall returns the wall clock.
func Wall() Clock { return wall{} }

// Virtual is a deterministic clock: Sleep advances it by the requested
// duration without blocking, and Now returns the accumulated virtual time.
// Give each session its own Virtual clock — sharing one across concurrent
// feeds makes their timestamps depend on goroutine interleaving.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtual returns a virtual clock starting at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now returns the current virtual time.
func (c *Virtual) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances the virtual time by d immediately (cancellation is still
// honoured so cancelled sessions stop at the same points as real ones).
func (c *Virtual) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d > 0 {
		c.mu.Lock()
		c.now = c.now.Add(d)
		c.mu.Unlock()
	}
	return nil
}
