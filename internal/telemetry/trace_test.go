package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).UTC().Add(time.Duration(ms) * time.Millisecond) }

func TestTracerSpansSorted(t *testing.T) {
	tr := NewTracer(fixedClock())
	tr.Record("site1", "cam-b", StageEncode, 2, at(0), at(1))
	tr.Record("site0", "cam-a", StagePull, 0, at(0), at(1))
	tr.Record("site0", "cam-a", StageEncode, 0, at(1), at(2))
	tr.Record("", "", StageMerge, -1, at(5), at(6))
	spans := tr.Spans()
	want := []struct {
		site, feed string
		stage      Stage
	}{
		{"", "", StageMerge},
		{"site0", "cam-a", StageEncode},
		{"site0", "cam-a", StagePull},
		{"site1", "cam-b", StageEncode},
	}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d", len(spans), len(want))
	}
	for i, w := range want {
		if spans[i].Site != w.site || spans[i].Feed != w.feed || spans[i].Stage != w.stage {
			t.Fatalf("span %d = %+v, want %+v", i, spans[i], w)
		}
	}
}

func TestNilTracerAndScopeAreInert(t *testing.T) {
	var tr *Tracer
	tr.Record("s", "f", StagePull, 0, at(0), at(1))
	sc := tr.Scope("s", "f")
	sc.Start(StageEncode, 1).End()
	tr.DropSite("s")
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer recorded something")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("nil tracer export: %v", err)
	}
	if _, err := SummarizeChrome(&buf); err != nil {
		t.Fatalf("empty trace does not round-trip: %v", err)
	}
}

func TestDropSiteDiscardsPastAndFuture(t *testing.T) {
	tr := NewTracer(fixedClock())
	tr.Record("site0", "a", StagePull, 0, at(0), at(1))
	tr.Record("site1", "b", StagePull, 0, at(0), at(1))
	tr.DropSite("site1")
	tr.Record("site1", "b", StageEncode, 1, at(1), at(2)) // late record from a dying site
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Site != "site0" {
		t.Fatalf("spans after DropSite = %+v, want only site0", spans)
	}
}

// TestWriteChromeDeterministic records the same span set in two different
// interleavings from concurrent goroutines and requires byte-identical
// exports — the sorted total order is the determinism mechanism.
func TestWriteChromeDeterministic(t *testing.T) {
	export := func(shuffle bool) []byte {
		tr := NewTracer(fixedClock())
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				feed := string(rune('a' + g))
				for i := 0; i < 50; i++ {
					n := i
					if shuffle {
						n = 49 - i
					}
					tr.Record("site0", feed, StagePull, n, at(n), at(n+1))
					tr.Record("site0", feed, StageEncode, n, at(n+1), at(n+2))
				}
			}(g)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(false), export(true)
	if !bytes.Equal(a, b) {
		t.Fatal("chrome trace bytes differ across recording interleavings")
	}
	sum, err := SummarizeChrome(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 400 {
		t.Fatalf("summary events = %d, want 400", sum.Events)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	clk := &tickClock{now: at(0), step: time.Millisecond}
	tr := NewTracer(clk)
	scA := tr.Scope("site0", "cam-a")
	scB := tr.Scope("site1", "cam-b")
	for i := 0; i < 3; i++ {
		sp := scA.Start(StagePull, i)
		sp.End()
		sp = scA.Start(StageEncode, i)
		sp.End()
		scB.Start(StageInfer, i).End()
	}
	tr.Record("", "", StageMerge, -1, clk.Now(), clk.Now())
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"process_name"`, `"thread_name"`, `"cluster"`, `"control"`, `"site0"`, `"cam-a"`, `"ph":"X"`, `"displayTimeUnit":"ms"`} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s:\n%s", want, out)
		}
	}
	sum, err := SummarizeChrome(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 10 {
		t.Fatalf("events = %d, want 10", sum.Events)
	}
	if got := strings.Join(sum.Sites, ","); got != "cluster,site0,site1" {
		t.Fatalf("sites = %s", got)
	}
	if len(sum.Stages) != 4 {
		t.Fatalf("stages = %+v, want pull/encode/infer/merge", sum.Stages)
	}
	var pull StageCount
	for _, s := range sum.Stages {
		if s.Stage == string(StagePull) {
			pull = s
		}
	}
	if pull.Count != 3 || pull.Total <= 0 {
		t.Fatalf("pull stage = %+v, want 3 spans with positive duration", pull)
	}
}

func TestSummarizeChromeRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents": [`,
		"unknown phase": `{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":1,"tid":1}],"displayTimeUnit":"ms"}`,
		"unnamed pid":   `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":1,"pid":9,"tid":1}],"displayTimeUnit":"ms"}`,
		"negative dur":  `{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"s"}},{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"f"}},{"name":"x","ph":"X","ts":0,"dur":-1,"pid":1,"tid":1}],"displayTimeUnit":"ms"}`,
	}
	for name, in := range cases {
		if _, err := SummarizeChrome(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestTracerChunkRollover(t *testing.T) {
	tr := NewTracer(fixedClock())
	const n = traceChunk*2 + 17
	for i := 0; i < n; i++ {
		tr.Record("s", "f", StagePull, i, at(0), at(0))
	}
	if tr.Len() != n {
		t.Fatalf("len = %d, want %d", tr.Len(), n)
	}
	if got := len(tr.Spans()); got != n {
		t.Fatalf("spans = %d, want %d", got, n)
	}
}
