// Package simnet models the network fabric of the paper's 3-tier testbed:
// point-to-point links with configurable bandwidth and latency (the
// evaluation pins edge→cloud at 30 Mbps) and byte-level transfer metering
// (the data behind Figure 5).
//
// Links account transfer time on a virtual clock and never sleep, so every
// metered run is deterministic and instant.
package simnet

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrLinkDown is returned by TrySend while a link is failed (see Link.Fail).
var ErrLinkDown = errors.New("simnet: link down")

// Link is a unidirectional channel with bandwidth, propagation latency and
// transfer accounting. The zero value is unusable; use NewLink.
type Link struct {
	bandwidthBps float64
	latency      time.Duration

	mu        sync.Mutex
	bytes     int64
	transfers int64
	busy      time.Duration
	// down models a hard partition: TrySend refuses.
	down bool
	// degrade divides the effective bandwidth while > 1 (slow WAN, not a
	// partition). 0 or 1 means full rate.
	degrade float64
}

// NewLink builds a link. bandwidthBps is in bits per second and must be
// positive; name only labels construction errors.
func NewLink(name string, bandwidthBps float64, latency time.Duration) (*Link, error) {
	if bandwidthBps <= 0 {
		return nil, fmt.Errorf("simnet: link %s: bandwidth %f must be positive", name, bandwidthBps)
	}
	if latency < 0 {
		return nil, fmt.Errorf("simnet: link %s: negative latency", name)
	}
	return &Link{bandwidthBps: bandwidthBps, latency: latency}, nil
}

// Bandwidth returns the configured rate in bits per second.
func (l *Link) Bandwidth() float64 { return l.bandwidthBps }

// TransferTime returns the modelled duration for n bytes (serialisation +
// propagation) at the link's current effective bandwidth, which a Degrade
// in force divides.
func (l *Link) TransferTime(n int64) time.Duration {
	l.mu.Lock()
	bps := l.effectiveBps()
	l.mu.Unlock()
	ser := time.Duration(float64(n*8) / bps * float64(time.Second))
	return ser + l.latency
}

// effectiveBps returns the bandwidth after degradation; callers hold l.mu.
func (l *Link) effectiveBps() float64 {
	if l.degrade > 1 {
		return l.bandwidthBps / l.degrade
	}
	return l.bandwidthBps
}

// TrySend accounts the transfer of n bytes and returns its modelled
// duration. While the link is down it transfers nothing and returns
// ErrLinkDown.
func (l *Link) TrySend(n int64) (time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return 0, ErrLinkDown
	}
	ser := time.Duration(float64(n*8) / l.effectiveBps() * float64(time.Second))
	d := ser + l.latency
	l.bytes += n
	l.transfers++
	l.busy += d
	return d, nil
}

// Fail partitions the link: subsequent TrySend calls return ErrLinkDown
// until Heal. Idempotent.
func (l *Link) Fail() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = true
}

// Heal restores a failed link. Idempotent; a Degrade in force survives a
// Fail/Heal cycle (a partition and a slow WAN are independent conditions).
func (l *Link) Heal() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = false
}

// Down reports whether the link is currently failed.
func (l *Link) Down() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// Degrade divides the link's effective bandwidth by factor (>= 1) until the
// next Degrade call; Degrade(1) restores full rate. Factors below 1, and
// NaN, are taken as 1 — a fault can only slow a link, never overclock it.
func (l *Link) Degrade(factor float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !(factor >= 1) {
		factor = 1
	}
	l.degrade = factor
}

// Degraded returns the current degradation factor (1 when at full rate).
func (l *Link) Degraded() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.degrade > 1 {
		return l.degrade
	}
	return 1
}

// Stats reports the accumulated transfer accounting.
func (l *Link) Stats() (bytes, transfers int64, busy time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes, l.transfers, l.busy
}
