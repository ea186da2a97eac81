// Package simnet models the network fabric of the paper's 3-tier testbed:
// point-to-point links with configurable bandwidth and latency (the
// evaluation pins edge→cloud at 30 Mbps) and byte-level transfer metering
// (the data behind Figure 5).
//
// Links operate in one of two modes: Virtual (default) accounts transfer
// time on a virtual clock without sleeping — the mode the benchmarks use —
// while Paced actually throttles, for live demos.
package simnet

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrLinkDown is returned by TrySend while a link is failed (see Link.Fail).
var ErrLinkDown = errors.New("simnet: link down")

// Mode selects whether a link sleeps for transfer time or only accounts it.
type Mode int

const (
	// Virtual accounts transfer durations without wall-clock delay.
	Virtual Mode = iota
	// Paced sleeps for the (scaled) transfer duration.
	Paced
)

// Link is a unidirectional channel with bandwidth, propagation latency and
// transfer accounting. The zero value is unusable; use NewLink.
type Link struct {
	name         string
	bandwidthBps float64
	latency      time.Duration
	mode         Mode
	// paceScale divides real sleeps in Paced mode (e.g. 100 = demo runs
	// 100x faster than real time).
	paceScale float64

	mu        sync.Mutex
	bytes     int64
	transfers int64
	busy      time.Duration
	// down models a hard partition: TrySend refuses and counts a drop.
	down  bool
	drops int64
	// degrade divides the effective bandwidth while > 1 (slow WAN, not a
	// partition). 0 or 1 means full rate.
	degrade float64
}

// NewLink builds a link. bandwidthBps is in bits per second and must be
// positive.
func NewLink(name string, bandwidthBps float64, latency time.Duration) (*Link, error) {
	if bandwidthBps <= 0 {
		return nil, fmt.Errorf("simnet: link %s: bandwidth %f must be positive", name, bandwidthBps)
	}
	if latency < 0 {
		return nil, fmt.Errorf("simnet: link %s: negative latency", name)
	}
	return &Link{
		name:         name,
		bandwidthBps: bandwidthBps,
		latency:      latency,
		paceScale:    1,
	}, nil
}

// SetMode switches between Virtual and Paced operation; scale divides real
// sleeps in Paced mode (scale <= 0 means 1).
func (l *Link) SetMode(m Mode, scale float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mode = m
	if scale <= 0 {
		scale = 1
	}
	l.paceScale = scale
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

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

// Send accounts (and in Paced mode, waits for) the transfer of n bytes,
// returning the modelled duration. Send never refuses — callers that model
// partitions use TrySend; Send exists for legacy metering paths that assume
// an always-up fabric.
func (l *Link) Send(n int64) time.Duration {
	d, _ := l.send(n, false)
	return d
}

// TrySend is Send for failure-aware callers: while the link is down it
// transfers nothing, counts a drop and returns ErrLinkDown.
func (l *Link) TrySend(n int64) (time.Duration, error) {
	return l.send(n, true)
}

func (l *Link) send(n int64, failable bool) (time.Duration, error) {
	l.mu.Lock()
	if failable && l.down {
		l.drops++
		l.mu.Unlock()
		return 0, ErrLinkDown
	}
	ser := time.Duration(float64(n*8) / l.effectiveBps() * float64(time.Second))
	d := ser + l.latency
	l.bytes += n
	l.transfers++
	l.busy += d
	mode, scale := l.mode, l.paceScale
	l.mu.Unlock()
	if mode == Paced {
		time.Sleep(time.Duration(float64(d) / scale))
	}
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

// Drops returns the number of TrySend calls refused while the link was down.
func (l *Link) Drops() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.drops
}

// Stats reports the accumulated transfer accounting.
func (l *Link) Stats() (bytes, transfers int64, busy time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes, l.transfers, l.busy
}

// Reset clears the accounting counters (including drops); the fault state
// itself — down flag and degradation — is left as-is.
func (l *Link) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bytes, l.transfers, l.busy, l.drops = 0, 0, 0, 0
}

// Topology is the paper's 3-tier fabric: camera→edge (LAN) and edge→cloud
// (WAN) links per camera site.
type Topology struct {
	CameraToEdge *Link
	EdgeToCloud  *Link
}

// NewPaperTopology builds the evaluation's network: a fast camera→edge LAN
// and the 30 Mbps edge→cloud WAN used throughout Section V.
func NewPaperTopology() *Topology {
	c2e, err := NewLink("camera-edge", 1e9, time.Millisecond)
	if err != nil {
		panic(err) // constants are valid
	}
	e2c, err := NewLink("edge-cloud", 30e6, 20*time.Millisecond)
	if err != nil {
		panic(err)
	}
	return &Topology{CameraToEdge: c2e, EdgeToCloud: e2c}
}
