// Package faultplan scripts deterministic fault injection for the cluster
// plane. A Plan is a list of fault events — site crashes and recoveries,
// uplink partitions and degradations, load skew — each anchored to a
// *frame-count trigger* on a named feed rather than to wall-clock time:
// "crash site1 when cam-north has encoded 5 frames". Because every feed's
// encode loop is single-threaded and frame counts advance deterministically,
// a plan fires at exactly the same points in every run, including under
// -race, which is what makes the failover equivalence tests byte-stable.
//
// The textual form accepted by Parse (and produced by Plan.String) is a
// semicolon-separated event list:
//
//	crash:site1:cam-north@5;recover:site1:cam-north@9
//	linkdown:site2:cam-east@3;linkup:site2:cam-east@7
//	degrade:site0:cam-west@2:4        (uplink at 1/4 bandwidth)
//	skew:site1:cam-north@1:3          (site1 reports 3x load to sharders)
//
// i.e. kind:site:feed@frame with a trailing :factor for degrade and skew.
package faultplan

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind enumerates the fault taxonomy.
type Kind int

const (
	// SiteCrash kills a site: its feeds stop, its uplink drops, its
	// EdgeStore survives (crash, not disk loss).
	SiteCrash Kind = iota
	// SiteRecover rejoins a crashed site to the load table. Feeds already
	// migrated away stay where they are; the site becomes eligible for
	// future placements and its uplink heals.
	SiteRecover
	// LinkDown partitions a site's uplink without killing the site: local
	// analysis continues, delta sync stalls (stale-but-consistent cloud).
	LinkDown
	// LinkUp heals a partitioned uplink.
	LinkUp
	// LinkDegrade divides a site's uplink bandwidth by the event factor.
	LinkDegrade
	// LoadSkew multiplies the frame count a site reports to sharders by the
	// event factor, steering future placements away from a "slow" site.
	LoadSkew
)

var kindNames = map[Kind]string{
	SiteCrash:   "crash",
	SiteRecover: "recover",
	LinkDown:    "linkdown",
	LinkUp:      "linkup",
	LinkDegrade: "degrade",
	LoadSkew:    "skew",
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// String returns the parseable name of the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// needsFactor reports whether the kind carries a multiplier.
func (k Kind) needsFactor() bool { return k == LinkDegrade || k == LoadSkew }

// Trigger anchors an event to a deterministic point in the run: it fires
// when the named feed's encoded-frame count reaches AtFrame (i.e. the
// feed's frame AtFrame-1 has been encoded; AtFrame 0 fires before the
// feed's first frame).
type Trigger struct {
	Feed    string
	AtFrame int
}

// Event is one scripted fault.
type Event struct {
	Kind    Kind
	Site    string
	Trigger Trigger
	// Factor is the bandwidth divisor (LinkDegrade) or load multiplier
	// (LoadSkew); 0 for the other kinds.
	Factor float64
}

// String renders the event in Parse's grammar.
func (e Event) String() string {
	s := fmt.Sprintf("%s:%s:%s@%d", e.Kind, e.Site, e.Trigger.Feed, e.Trigger.AtFrame)
	if e.Kind.needsFactor() {
		s += ":" + strconv.FormatFloat(e.Factor, 'g', -1, 64)
	}
	return s
}

// Plan is a validated, deterministically ordered fault script.
type Plan struct {
	events []Event
}

// New validates and orders the events into a Plan. Ordering is total —
// (feed, frame, kind, site, factor) — so two events sharing a trigger fire
// in the same order every run.
func New(events ...Event) (*Plan, error) {
	for i, e := range events {
		if _, ok := kindNames[e.Kind]; !ok {
			return nil, fmt.Errorf("faultplan: event %d: unknown kind %d", i, int(e.Kind))
		}
		if e.Site == "" {
			return nil, fmt.Errorf("faultplan: event %d (%s): empty site", i, e.Kind)
		}
		if e.Trigger.Feed == "" {
			return nil, fmt.Errorf("faultplan: event %d (%s:%s): empty trigger feed", i, e.Kind, e.Site)
		}
		if e.Trigger.AtFrame < 0 {
			return nil, fmt.Errorf("faultplan: event %d (%s): negative trigger frame %d", i, e, e.Trigger.AtFrame)
		}
		if e.Kind.needsFactor() && (e.Factor < 1 || math.IsNaN(e.Factor) || math.IsInf(e.Factor, 1)) {
			return nil, fmt.Errorf("faultplan: event %d (%s): factor %g must be finite and >= 1", i, e, e.Factor)
		}
		if !e.Kind.needsFactor() && e.Factor != 0 {
			return nil, fmt.Errorf("faultplan: event %d (%s): factor set on factorless kind", i, e)
		}
	}
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Trigger.Feed != b.Trigger.Feed {
			return a.Trigger.Feed < b.Trigger.Feed
		}
		if a.Trigger.AtFrame != b.Trigger.AtFrame {
			return a.Trigger.AtFrame < b.Trigger.AtFrame
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Factor < b.Factor
	})
	return &Plan{events: sorted}, nil
}

// Parse builds a Plan from the textual grammar documented on the package.
func Parse(script string) (*Plan, error) {
	var events []Event
	for _, part := range strings.Split(script, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 3 || len(fields) > 4 {
			return nil, fmt.Errorf("faultplan: %q: want kind:site:feed@frame[:factor]", part)
		}
		kind, ok := kindByName[fields[0]]
		if !ok {
			return nil, fmt.Errorf("faultplan: %q: unknown kind %q", part, fields[0])
		}
		feed, frameStr, ok := strings.Cut(fields[2], "@")
		if !ok {
			return nil, fmt.Errorf("faultplan: %q: missing @frame trigger", part)
		}
		frame, err := strconv.Atoi(frameStr)
		if err != nil {
			return nil, fmt.Errorf("faultplan: %q: bad trigger frame %q", part, frameStr)
		}
		e := Event{Kind: kind, Site: fields[1], Trigger: Trigger{Feed: feed, AtFrame: frame}}
		if len(fields) == 4 {
			if !kind.needsFactor() {
				return nil, fmt.Errorf("faultplan: %q: kind %s takes no factor", part, kind)
			}
			f, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("faultplan: %q: bad factor %q", part, fields[3])
			}
			e.Factor = f
		} else if kind.needsFactor() {
			return nil, fmt.Errorf("faultplan: %q: kind %s requires a :factor", part, kind)
		}
		events = append(events, e)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("faultplan: empty script")
	}
	return New(events...)
}

// Events returns the plan's events in firing order.
func (p *Plan) Events() []Event {
	out := make([]Event, len(p.events))
	copy(out, p.events)
	return out
}

// Len returns the number of scripted events.
func (p *Plan) Len() int { return len(p.events) }

// String renders the plan in Parse's grammar; Parse(p.String()) round-trips.
func (p *Plan) String() string {
	parts := make([]string, len(p.events))
	for i, e := range p.events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// Runner fires a Plan's events as feeds report encode progress. Observe is
// safe for concurrent use from per-site goroutines; because each feed is
// observed from exactly one goroutine and triggers are per-feed frame
// counts, the (feed, frame) at which every event fires is identical across
// runs regardless of goroutine interleaving.
type Runner struct {
	mu      sync.Mutex
	pending []Event // plan order; fired events are removed
}

// NewRunner returns a Runner over the plan (nil plan → inert runner).
func NewRunner(p *Plan) *Runner {
	r := &Runner{}
	if p != nil {
		r.pending = p.Events()
	}
	return r
}

// Observe reports that the feed has encoded `frames` frames so far and
// returns the events that fire at this point, in plan order. An event fires
// at most once.
func (r *Runner) Observe(feed string, frames int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	kept := r.pending[:0]
	for _, e := range r.pending {
		if e.Trigger.Feed == feed && e.Trigger.AtFrame <= frames {
			out = append(out, e)
		} else {
			kept = append(kept, e)
		}
	}
	r.pending = kept
	return out
}

// Remaining returns the number of events that have not fired yet.
func (r *Runner) Remaining() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}
