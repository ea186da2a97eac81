package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"sieve/internal/clock"
)

// Stage names one pipeline stage of the SiEVE dataflow. Spans are keyed
// (site, feed, frame, stage); the taxonomy follows the paper's pipeline:
// source pull → encode → sieve filter → infer → uplink ship → merge.
type Stage string

const (
	// StagePull covers FrameSource.Next — waiting on the camera.
	StagePull Stage = "pull"
	// StageEncode covers SemanticEncoder.EncodeInto.
	StageEncode Stage = "encode"
	// StageFilter marks a frame passing the I-frame filter (the paper's
	// candidate-event signal); P/B frames are filtered out and get no span.
	StageFilter Stage = "filter"
	// StageInfer covers I-frame decode plus the (possibly batched)
	// detector forward pass.
	StageInfer Stage = "infer"
	// StageShip covers shipping a detection over the uplink to the cloud
	// coordinator.
	StageShip Stage = "ship"
	// StageMerge covers the cloud-side MergeAll into the global ResultsDB.
	StageMerge Stage = "merge"
)

// Span is one completed pipeline-stage interval, anchored to a frame.
type Span struct {
	Site  string
	Feed  string
	Stage Stage
	Frame int
	Start time.Time
	End   time.Time
}

// traceChunk is the span-storage chunk size: recording allocates once per
// traceChunk spans, so the steady state is allocation-free.
const traceChunk = 4096

// Tracer records frame-anchored spans. All methods are safe for
// concurrent use. Time comes exclusively from the injected Clock: a
// VirtualClock makes the exported trace byte-identical across runs, the
// wall clock makes it a real profile. A nil *Tracer is a valid no-op
// (Scope and Record on nil do nothing), so call sites need no branching.
type Tracer struct {
	clock clock.Clock

	mu     sync.Mutex
	active []Span
	full   [][]Span
	dead   map[string]bool // sites whose spans are dropped (crash semantics)
}

// NewTracer returns a tracer reading timestamps from clk.
func NewTracer(clk clock.Clock) *Tracer {
	if clk == nil {
		panic("telemetry: NewTracer needs a clock")
	}
	return &Tracer{clock: clk}
}

// Record appends one completed span. Spans recorded for a site previously
// passed to DropSite are discarded — a crashed site's telemetry dies with
// it, exactly like its in-memory state.
//
//sieve:noalloc chunked storage: growth is amortised once per 4096 spans
func (t *Tracer) Record(site, feed string, stage Stage, frame int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.dead != nil && t.dead[site] {
		t.mu.Unlock()
		return
	}
	if len(t.active) == cap(t.active) {
		if cap(t.active) > 0 {
			t.full = append(t.full, t.active) //sieve:allowalloc chunk ledger grows once per 4096 spans
		}
		t.active = make([]Span, 0, traceChunk) //sieve:allowalloc one chunk per 4096 spans, amortised
	}
	t.active = append(t.active, Span{Site: site, Feed: feed, Stage: stage, Frame: frame, Start: start, End: end})
	t.mu.Unlock()
}

// Scope binds a (site, feed) identity for span recording in a session hot
// loop. A nil receiver returns a nil scope, and a nil scope records
// nothing, so "tracing off" costs one pointer test per stage.
func (t *Tracer) Scope(site, feed string) *Scope {
	if t == nil {
		return nil
	}
	return &Scope{t: t, site: site, feed: feed}
}

// Scope is a (site, feed)-bound span recorder.
type Scope struct {
	t          *Tracer
	site, feed string
}

// Start opens a span for stage on frame, stamping the start time from the
// tracer clock. End the returned handle when the stage completes. On a
// nil scope the handle is inert.
//
//sieve:noalloc handle is a stack value; clock read only
func (sc *Scope) Start(stage Stage, frame int) SpanHandle {
	if sc == nil {
		return SpanHandle{}
	}
	return SpanHandle{sc: sc, stage: stage, frame: frame, start: sc.t.clock.Now()}
}

// SpanHandle is an open span; End records it.
type SpanHandle struct {
	sc    *Scope
	stage Stage
	frame int
	start time.Time
}

// End stamps the end time and records the span. No-op on an inert handle.
//
//sieve:noalloc delegates to Tracer.Record's amortised chunk storage
func (h SpanHandle) End() {
	if h.sc == nil {
		return
	}
	h.sc.t.Record(h.sc.site, h.sc.feed, h.stage, h.frame, h.start, h.sc.t.clock.Now())
}

// DropSite discards every span recorded for site and every span the site
// records from now on. The failover controller calls it when a site
// crashes: a real edge process loses its in-memory trace buffer with the
// process, and dropping the tail also keeps fault-plan traces
// deterministic (how far a dying site got past its crash trigger is
// scheduling noise).
func (t *Tracer) DropSite(site string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead == nil {
		t.dead = make(map[string]bool)
	}
	t.dead[site] = true
	kept := make([]Span, 0, t.lenLocked())
	for _, chunk := range t.full {
		for _, sp := range chunk {
			if sp.Site != site {
				kept = append(kept, sp)
			}
		}
	}
	for _, sp := range t.active {
		if sp.Site != site {
			kept = append(kept, sp)
		}
	}
	t.full = nil
	t.active = kept
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lenLocked()
}

func (t *Tracer) lenLocked() int {
	n := len(t.active)
	for _, c := range t.full {
		n += len(c)
	}
	return n
}

// Spans returns a copy of all recorded spans in the canonical export
// order: sorted by (site, feed, frame, stage, start, end). The total
// order over every field is what makes the export deterministic even
// though goroutines record concurrently.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, 0, t.lenLocked())
	for _, c := range t.full {
		out = append(out, c...)
	}
	out = append(out, t.active...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if a.Feed != b.Feed {
			return a.Feed < b.Feed
		}
		if a.Frame != b.Frame {
			return a.Frame < b.Frame
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return a.End.Before(b.End)
	})
	return out
}

// chromeEvent is one entry of the Chrome trace_event JSON format
// (complete events ph="X", metadata ph="M"), loadable in chrome://tracing
// and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object container format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// displayName maps the empty site/feed ("the cloud control plane") to a
// readable track name.
func displayName(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}

// WriteChrome exports the trace as Chrome trace_event JSON: one process
// per site (the empty site renders as "cluster"), one thread per feed
// (the empty feed as "control"), complete events with microsecond
// timestamps relative to the earliest span. Output is byte-deterministic
// for a given span set.
func (t *Tracer) WriteChrome(w io.Writer) error {
	spans := t.Spans()
	// Stable pid/tid assignment: walk the sorted spans, numbering sites
	// and (site, feed) pairs in first-appearance order (which is sorted
	// order). Metadata events name each track.
	pids := make(map[string]int)
	tids := make(map[string]int) // key: site + "\x00" + feed
	var events []chromeEvent
	var epoch time.Time
	for i, sp := range spans {
		if i == 0 || sp.Start.Before(epoch) {
			epoch = sp.Start
		}
	}
	nextTid := 0
	for _, sp := range spans {
		if _, ok := pids[sp.Site]; !ok {
			pids[sp.Site] = len(pids) + 1
			nextTid = 0
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pids[sp.Site], Tid: 0,
				Args: map[string]any{"name": displayName(sp.Site, "cluster")},
			})
		}
		tk := sp.Site + "\x00" + sp.Feed
		if _, ok := tids[tk]; !ok {
			nextTid++
			tids[tk] = nextTid
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pids[sp.Site], Tid: tids[tk],
				Args: map[string]any{"name": displayName(sp.Feed, "control")},
			})
		}
	}
	for _, sp := range spans {
		dur := float64(sp.End.Sub(sp.Start).Nanoseconds()) / 1e3
		events = append(events, chromeEvent{
			Name: string(sp.Stage),
			Cat:  "sieve",
			Ph:   "X",
			Ts:   float64(sp.Start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:  &dur,
			Pid:  pids[sp.Site],
			Tid:  tids[sp.Site+"\x00"+sp.Feed],
			Args: map[string]any{"frame": sp.Frame},
		})
	}
	b, err := json.Marshal(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
	if err != nil {
		return fmt.Errorf("telemetry: encoding trace: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// StageCount aggregates the spans of one stage in a TraceSummary.
type StageCount struct {
	Stage string
	Count int
	Total time.Duration
}

// TraceSummary is the parsed, validated shape of a Chrome trace file —
// what `sieve trace` prints and what the obs-smoke round-trip checks.
type TraceSummary struct {
	Events int // span (ph="X") events
	Sites  []string
	Feeds  []string
	Stages []StageCount
}

// SummarizeChrome parses and validates Chrome trace_event JSON produced
// by WriteChrome (or anything shaped like it) and aggregates it. Errors
// on structural violations: unknown phase, missing names, negative
// durations, events referencing unnamed processes, and durations a stage
// total cannot hold in a time.Duration.
func SummarizeChrome(r io.Reader) (TraceSummary, error) {
	var tr chromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tr); err != nil {
		return TraceSummary{}, fmt.Errorf("telemetry: parsing trace: %w", err)
	}
	procs := make(map[int]string)
	threads := make(map[string]string) // "pid/tid" -> name
	siteSet := make(map[string]bool)
	feedSet := make(map[string]bool)
	stageAgg := make(map[string]*StageCount)
	var sum TraceSummary
	for i, ev := range tr.TraceEvents {
		if ev.Name == "" {
			return TraceSummary{}, fmt.Errorf("telemetry: trace event %d has no name", i)
		}
		switch ev.Ph {
		case "M":
			name, _ := ev.Args["name"].(string)
			if name == "" {
				return TraceSummary{}, fmt.Errorf("telemetry: metadata event %d has no args.name", i)
			}
			switch ev.Name {
			case "process_name":
				procs[ev.Pid] = name
				siteSet[name] = true
			case "thread_name":
				threads[fmt.Sprintf("%d/%d", ev.Pid, ev.Tid)] = name
				feedSet[name] = true
			}
		case "X":
			if ev.Ts < 0 || ev.Dur == nil || *ev.Dur < 0 {
				return TraceSummary{}, fmt.Errorf("telemetry: span event %d (%s) has invalid ts/dur", i, ev.Name)
			}
			if procs[ev.Pid] == "" {
				return TraceSummary{}, fmt.Errorf("telemetry: span event %d (%s) references unnamed pid %d", i, ev.Name, ev.Pid)
			}
			if threads[fmt.Sprintf("%d/%d", ev.Pid, ev.Tid)] == "" {
				return TraceSummary{}, fmt.Errorf("telemetry: span event %d (%s) references unnamed tid %d/%d", i, ev.Name, ev.Pid, ev.Tid)
			}
			sum.Events++
			// A duration whose nanoseconds do not fit a Duration, or that
			// would take its stage's total past the largest one, is refused:
			// converted or added, it would wrap to a negative total.
			ns := *ev.Dur * 1e3
			if ns >= 1<<63 {
				return TraceSummary{}, fmt.Errorf("telemetry: span event %d (%s) has dur %g µs, longer than a time.Duration", i, ev.Name, *ev.Dur)
			}
			agg := stageAgg[ev.Name]
			if agg == nil {
				agg = &StageCount{Stage: ev.Name}
				stageAgg[ev.Name] = agg
			}
			d := time.Duration(ns)
			if agg.Total > math.MaxInt64-d {
				return TraceSummary{}, fmt.Errorf("telemetry: span event %d (%s) takes the stage's total duration past a time.Duration", i, ev.Name)
			}
			agg.Count++
			agg.Total += d
		default:
			return TraceSummary{}, fmt.Errorf("telemetry: trace event %d (%s) has unsupported phase %q", i, ev.Name, ev.Ph)
		}
	}
	for name := range siteSet {
		sum.Sites = append(sum.Sites, name)
	}
	sort.Strings(sum.Sites)
	for name := range feedSet {
		sum.Feeds = append(sum.Feeds, name)
	}
	sort.Strings(sum.Feeds)
	for name := range stageAgg {
		sum.Stages = append(sum.Stages, *stageAgg[name])
	}
	sort.Slice(sum.Stages, func(i, j int) bool { return sum.Stages[i].Stage < sum.Stages[j].Stage })
	return sum, nil
}
