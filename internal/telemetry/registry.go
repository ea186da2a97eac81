package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. Record methods are
// lock-free and allocation-free; register once at construction, then Add
// from the hot path.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n and returns the new value.
//
//sieve:noalloc steady-state record path, pinned by AllocsPerRun
func (c *Counter) Add(n int64) int64 { return c.v.Add(n) }

// Inc increments the counter by one and returns the new value.
//
//sieve:noalloc steady-state record path, pinned by AllocsPerRun
func (c *Counter) Inc() int64 { return c.v.Add(1) }

// Value returns the current count.
//
//sieve:noalloc read path is as hot as the record path
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64 — a level, not a rate.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
//
//sieve:noalloc steady-state record path, pinned by AllocsPerRun
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n and returns the new value.
//
//sieve:noalloc steady-state record path, pinned by AllocsPerRun
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// Max raises the gauge to n if n exceeds the current value (a running
// high-water mark, e.g. the largest inference batch seen).
//
//sieve:noalloc steady-state record path, pinned by AllocsPerRun
func (g *Gauge) Max(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current level.
//
//sieve:noalloc read path is as hot as the record path
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram over int64
// observations. Bounds are inclusive upper bounds (Prometheus `le`
// semantics) plus an implicit +Inf bucket; they are fixed at registration
// so Observe never allocates.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1, last is +Inf
	sum     atomic.Int64
	count   atomic.Int64
}

// Observe records one value.
//
//sieve:noalloc steady-state record path, pinned by AllocsPerRun
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations so far.
//
//sieve:noalloc read path is as hot as the record path
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations so far.
//
//sieve:noalloc read path is as hot as the record path
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// instrument kinds, for family-level consistency checks.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

// entry is one registered series.
type entry struct {
	key    string // canonical Key(name, labels...)
	name   string
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry owns a set of pre-registered instruments. Registration
// (Counter/Gauge/Histogram) takes a lock and may allocate; it happens at
// construction time. Recording happens on the instruments themselves and
// never touches the registry. Snapshot and the exposition writers emit in
// sorted order, so their output is deterministic regardless of
// registration or goroutine interleaving.
type Registry struct {
	mu      sync.Mutex
	index   map[string]*entry
	entries []*entry
	kinds   map[string]string // family name -> kind
	help    map[string]string // family name -> help text
	collect []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		index: make(map[string]*entry),
		kinds: make(map[string]string),
		help:  make(map[string]string),
	}
}

// Counter registers (or returns the existing) counter series for name and
// labels. Panics if the family is already registered as a different kind —
// instrument identity is a construction-time programming contract.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	e := r.register(name, kindCounter, nil, labels)
	return e.c
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	e := r.register(name, kindGauge, nil, labels)
	return e.g
}

// Histogram registers (or returns the existing) histogram series with the
// given inclusive upper bounds (ascending; +Inf is implicit). Bounds must
// match across series of one family.
func (r *Registry) Histogram(name string, bounds []int64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s bounds not ascending", name))
		}
	}
	return r.register(name, kindHist, bounds, labels).h
}

// register finds or creates the series entry, enforcing kind consistency.
// A new histogram gets its bounds and buckets here, under the lock, so a
// concurrent Snapshot never sees the series half-built.
func (r *Registry) register(name, kind string, bounds []int64, labels []Label) *entry {
	key := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if k, ok := r.kinds[name]; ok && k != kind {
		panic(fmt.Sprintf("telemetry: %s already registered as %s, not %s", name, k, kind))
	}
	if e, ok := r.index[key]; ok {
		return e
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	e := &entry{key: key, name: name, labels: ls}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHist:
		e.h = &Histogram{bounds: append([]int64{}, bounds...), buckets: make([]atomic.Int64, len(bounds)+1)}
	}
	r.kinds[name] = kind
	r.index[key] = e
	r.entries = append(r.entries, e)
	return e
}

// Describe attaches Prometheus HELP text to a metric family.
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// OnCollect registers a callback run at the start of every Snapshot and
// WritePrometheus, before instrument values are read — the hook for
// scrape-time gauges (uplink bytes, store occupancy) whose source of
// truth lives elsewhere. Callbacks run outside the registry lock and may
// register or set instruments; they must be safe to call concurrently
// with recording.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	r.collect = append(r.collect, fn)
	r.mu.Unlock()
}

// runCollectors invokes the OnCollect hooks outside the registry lock.
func (r *Registry) runCollectors() {
	r.mu.Lock()
	fns := make([]func(), len(r.collect))
	copy(fns, r.collect)
	r.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// sortedEntries copies the entry list, sorted by (name, key), for export.
func (r *Registry) sortedEntries() []*entry {
	r.mu.Lock()
	es := make([]*entry, len(r.entries))
	copy(es, r.entries)
	r.mu.Unlock()
	sort.Slice(es, func(i, j int) bool {
		if es[i].name != es[j].name {
			return es[i].name < es[j].name
		}
		return es[i].key < es[j].key
	})
	return es
}

// CounterPoint is one counter series in a Snapshot.
type CounterPoint struct {
	Key   string
	Value int64
}

// GaugePoint is one gauge series in a Snapshot.
type GaugePoint struct {
	Key   string
	Value int64
}

// HistogramPoint is one histogram series in a Snapshot.
type HistogramPoint struct {
	Key    string
	Bounds []int64
	Counts []int64 // per-bucket (not cumulative), last is +Inf
	Sum    int64
	Count  int64
}

// Snapshot is a point-in-time copy of every registered series, sorted by
// key. Individual values are atomically read; the snapshot as a whole is
// not a cross-instrument atomic cut (concurrent recorders may land
// between reads), which is the standard monitoring contract.
type Snapshot struct {
	Counters   []CounterPoint
	Gauges     []GaugePoint
	Histograms []HistogramPoint
}

// Snapshot captures the current value of every series.
func (r *Registry) Snapshot() Snapshot {
	r.runCollectors()
	var s Snapshot
	for _, e := range r.sortedEntries() {
		switch {
		case e.c != nil:
			s.Counters = append(s.Counters, CounterPoint{Key: e.key, Value: e.c.Value()})
		case e.g != nil:
			s.Gauges = append(s.Gauges, GaugePoint{Key: e.key, Value: e.g.Value()})
		case e.h != nil:
			hp := HistogramPoint{Key: e.key, Sum: e.h.Sum(), Count: e.h.Count()}
			hp.Bounds = append(hp.Bounds, e.h.bounds...)
			for i := range e.h.buckets {
				hp.Counts = append(hp.Counts, e.h.buckets[i].Load())
			}
			s.Histograms = append(s.Histograms, hp)
		}
	}
	return s
}

// Counter returns the value of the counter series with the given
// canonical key (see Key), or 0 if absent.
func (s Snapshot) Counter(key string) int64 {
	i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Key >= key })
	if i < len(s.Counters) && s.Counters[i].Key == key {
		return s.Counters[i].Value
	}
	return 0
}

// Gauge returns the value of the gauge series with the given canonical
// key, or 0 if absent.
func (s Snapshot) Gauge(key string) int64 {
	i := sort.Search(len(s.Gauges), func(i int) bool { return s.Gauges[i].Key >= key })
	if i < len(s.Gauges) && s.Gauges[i].Key == key {
		return s.Gauges[i].Value
	}
	return 0
}

// Diff returns a snapshot whose counters and histograms are this
// snapshot's values minus base's (series absent from base pass through
// unchanged); gauges keep their current value. Use it to meter an
// interval: take a snapshot before and after, diff, read rates.
func (s Snapshot) Diff(base Snapshot) Snapshot {
	var d Snapshot
	d.Counters = make([]CounterPoint, len(s.Counters))
	copy(d.Counters, s.Counters)
	for i := range d.Counters {
		d.Counters[i].Value -= base.Counter(d.Counters[i].Key)
	}
	d.Gauges = make([]GaugePoint, len(s.Gauges))
	copy(d.Gauges, s.Gauges)
	for i := range s.Histograms {
		hp := s.Histograms[i]
		out := HistogramPoint{Key: hp.Key, Sum: hp.Sum, Count: hp.Count}
		out.Bounds = append(out.Bounds, hp.Bounds...)
		out.Counts = append(out.Counts, hp.Counts...)
		for _, bh := range base.Histograms {
			if bh.Key != hp.Key || len(bh.Counts) != len(out.Counts) {
				continue
			}
			out.Sum -= bh.Sum
			out.Count -= bh.Count
			for j := range out.Counts {
				out.Counts[j] -= bh.Counts[j]
			}
			break
		}
		d.Histograms = append(d.Histograms, out)
	}
	return d
}
