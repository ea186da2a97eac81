package cluster

import (
	"fmt"
	"time"

	"sieve/internal/simnet"
)

// Default uplink parameters: the paper's 30 Mbps / 20 ms edge→cloud WAN
// (the same link the paper harness, internal/experiments, models).
const (
	DefaultUplinkBps     = 30e6
	DefaultUplinkLatency = 20 * time.Millisecond
)

// Topology is the cluster's star fabric, extending the paper's two-site
// testbed to K edge sites: one metered simnet uplink per site
// to the cloud coordinator. Every detection and shard sync a site ships
// pays its uplink's (virtual) transfer time and is counted in its byte
// meter — the cluster-scale counterpart of the data behind Figure 5.
type Topology struct {
	order []string
	links map[string]*simnet.Link
}

// NewStarTopology builds one uplink per named site. bandwidthBps <= 0 and
// latency < 0 select the paper defaults.
func NewStarTopology(sites []string, bandwidthBps float64, latency time.Duration) (*Topology, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("cluster: topology needs at least one site")
	}
	if bandwidthBps <= 0 {
		bandwidthBps = DefaultUplinkBps
	}
	if latency < 0 {
		latency = DefaultUplinkLatency
	}
	t := &Topology{links: make(map[string]*simnet.Link, len(sites))}
	for _, name := range sites {
		if _, dup := t.links[name]; dup {
			return nil, fmt.Errorf("cluster: duplicate site %q in topology", name)
		}
		link, err := simnet.NewLink(name+"-cloud", bandwidthBps, latency)
		if err != nil {
			return nil, err
		}
		t.order = append(t.order, name)
		t.links[name] = link
	}
	return t, nil
}

// Sites lists the site names in registration order.
func (t *Topology) Sites() []string {
	return append([]string(nil), t.order...)
}

// Uplink returns a site's edge→cloud link.
func (t *Topology) Uplink(site string) (*simnet.Link, bool) {
	l, ok := t.links[site]
	return l, ok
}
