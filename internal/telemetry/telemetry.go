// Package telemetry is the repo's zero-dependency, deterministic-safe
// observability layer: a Registry of typed instruments (counters, gauges,
// fixed-bucket histograms) with zero-allocation record paths, a
// frame-anchored span Tracer exporting Chrome trace_event JSON, a
// Prometheus text-format exposition writer, and a machine-readable
// benchmark report schema.
//
// Determinism contract: the package never reads the wall clock — every
// timestamp flows in through the injected clock.Clock — and every export path
// (Snapshot, WritePrometheus, WriteChrome) emits in a sorted, stable
// order, so under a VirtualClock two identical runs produce byte-identical
// artifacts. Record paths (Counter.Add, Gauge.Set/Max, Histogram.Observe,
// Tracer.Record) are annotated //sieve:noalloc and pinned by
// AllocsPerRun tests; instruments must be registered at construction
// time, never on the hot path (enforced by the telemetry analyzer in
// cmd/sievelint).
package telemetry

import (
	"sort"
	"strings"
)

// Label is one dimension of an instrument's identity (feed, site, ...).
// Labels are fixed at registration; a labelled instrument is a distinct
// time series.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Key renders the canonical series key for name plus labels — the form
// used by Snapshot, Diff and the Prometheus exposition: `name` with no
// labels, `name{k="v",k2="v2"}` (label keys sorted) otherwise.
func Key(name string, labels ...Label) string {
	if len(labels) == 0 {
		return name
	}
	return name + renderLabels(labels)
}

// renderLabels renders `{k="v",...}` with keys sorted and values escaped
// per the Prometheus text format. Returns "" for an empty set.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes backslash, double quote and newline, the three
// characters the Prometheus text format requires escaping in label values.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
