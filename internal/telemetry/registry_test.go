package telemetry

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sieve/internal/clock"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames_total", L("feed", "cam"))
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if again := r.Counter("frames_total", L("feed", "cam")); again != c {
		t.Fatal("re-registering the same series returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Max(5)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge after Max(5) = %d, want 7", got)
	}
	g.Max(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge after Max(9) = %d, want 9", got)
	}
	h := r.Histogram("bytes", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	if h.Count() != 3 || h.Sum() != 555 {
		t.Fatalf("histogram count/sum = %d/%d, want 3/555", h.Count(), h.Sum())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as gauge after counter did not panic")
		}
	}()
	r.Gauge("x")
}

func TestKeyCanonicalisesLabels(t *testing.T) {
	a := Key("m", L("b", "2"), L("a", "1"))
	b := Key("m", L("a", "1"), L("b", "2"))
	if a != b || a != `m{a="1",b="2"}` {
		t.Fatalf("keys not canonical: %q vs %q", a, b)
	}
	if Key("m") != "m" {
		t.Fatalf("bare key = %q", Key("m"))
	}
}

func TestSnapshotSortedAndDiff(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total").Add(10)
	r.Counter("a_total").Add(1)
	r.Gauge("g").Set(5)
	r.Histogram("h", []int64{10}).Observe(3)
	base := r.Snapshot()
	if base.Counters[0].Key != "a_total" || base.Counters[1].Key != "z_total" {
		t.Fatalf("snapshot counters not sorted: %+v", base.Counters)
	}
	r.Counter("z_total").Add(5)
	r.Histogram("h", []int64{10}).Observe(99)
	d := r.Snapshot().Diff(base)
	if got := d.Counter("z_total"); got != 5 {
		t.Fatalf("diff z_total = %d, want 5", got)
	}
	if got := d.Counter("a_total"); got != 0 {
		t.Fatalf("diff a_total = %d, want 0", got)
	}
	if got := d.Gauge("g"); got != 5 {
		t.Fatalf("diff gauge = %d, want current value 5", got)
	}
	if d.Histograms[0].Count != 1 || d.Histograms[0].Sum != 99 {
		t.Fatalf("diff histogram = %+v, want count 1 sum 99", d.Histograms[0])
	}
	if d.Histograms[0].Counts[1] != 1 {
		t.Fatalf("diff histogram +Inf bucket = %d, want 1", d.Histograms[0].Counts[1])
	}
}

func TestOnCollectRunsBeforeSnapshot(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("level")
	n := int64(0)
	r.OnCollect(func() { n++; g.Set(n) })
	if got := r.Snapshot().Gauge("level"); got != 1 {
		t.Fatalf("first snapshot gauge = %d, want 1", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "level 2") {
		t.Fatalf("exposition after second collect:\n%s", sb.String())
	}
}

func TestRecordPathsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []int64{1, 10, 100})
	tr := NewTracer(fixedClock())
	sc := tr.Scope("site0", "cam")
	tr.Record("warm", "up", StagePull, 0, time.Time{}, time.Time{}) // allocate the first chunk
	checks := map[string]func(){
		"counter":   func() { c.Add(1) },
		"gauge":     func() { g.Set(3); g.Max(4) },
		"histogram": func() { h.Observe(42) },
		"record":    func() { tr.Record("site0", "cam", StageEncode, 1, time.Time{}, time.Time{}) },
		"span":      func() { sc.Start(StageInfer, 2).End() },
	}
	for _, name := range []string{"counter", "gauge", "histogram", "record", "span"} {
		if allocs := testing.AllocsPerRun(200, checks[name]); allocs != 0 {
			t.Errorf("%s record path: %v allocs/op, want 0", name, allocs)
		}
	}
}

func TestConcurrentRecordingAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	h := r.Histogram("h", []int64{8})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
				var sb strings.Builder
				_ = r.WritePrometheus(&sb)
			}
		}
	}()
	// The workers also register series while the snapshots run, as a
	// session built mid-run does: Snapshot must never read a histogram
	// half-built.
	const workers, per = 4, 1000
	var rec sync.WaitGroup
	for w := 0; w < workers; w++ {
		rec.Add(1)
		go func() {
			defer rec.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(i))
				if i%50 == 0 {
					r.Histogram("late", []int64{8}, L("w", fmt.Sprint(w)), L("i", fmt.Sprint(i))).Observe(1)
				}
			}
		}()
	}
	rec.Wait()
	close(stop)
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

// fixedClock is a frozen test clock: nothing in the tracer sleeps, so a
// Virtual clock never moves.
func fixedClock() clock.Clock { return clock.NewVirtual(time.Unix(0, 0).UTC()) }

// tickClock advances a fixed step per Now call.
type tickClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func (c *tickClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return ctx.Err()
}
