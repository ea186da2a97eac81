package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// The two parsers `sieve trace` and the obs-smoke job feed files and
// scrapes to, fuzzed on arbitrary bytes rather than only on what this
// package writes.

// chromeSeed is a small trace as WriteChrome writes it.
func chromeSeed(f *testing.F) []byte {
	tr := NewTracer(fixedClock())
	tr.Record("site0", "cam-a", StagePull, 0, at(0), at(1))
	tr.Record("site0", "cam-a", StageEncode, 0, at(1), at(3))
	tr.Record("", "", StageMerge, -1, at(5), at(6))
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// overflowTrace is a trace of one encode span per given duration, in µs.
func overflowTrace(durs ...string) string {
	var sb strings.Builder
	sb.WriteString(`{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"site0"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"cam"}}`)
	for _, d := range durs {
		sb.WriteString(`,{"name":"encode","ph":"X","ts":0,"dur":` + d + `,"pid":1,"tid":1}`)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// TestSummarizeChromeRefusesOverflow: a span whose duration does not fit a
// time.Duration in nanoseconds, and spans whose stage total would not, are
// errors — not a negative total.
func TestSummarizeChromeRefusesOverflow(t *testing.T) {
	for _, durs := range [][]string{
		{"1e20", "9.2e12", "9.2e12"}, // the first alone does not fit
		{"9.2e15", "9.2e15"},         // each fits; their sum does not
		{"9223372036854776"},         // just over 2⁶³ ns
	} {
		if sum, err := SummarizeChrome(strings.NewReader(overflowTrace(durs...))); err == nil {
			t.Errorf("durations %v µs: summary %+v, want an error", durs, sum)
		}
	}
	sum, err := SummarizeChrome(strings.NewReader(overflowTrace("9.2e15", "1")))
	if err != nil {
		t.Fatal(err)
	}
	if want := 9200000000000001 * time.Microsecond; len(sum.Stages) != 1 || sum.Stages[0].Total != want {
		t.Fatalf("stages %+v, want one encode stage of %v", sum.Stages, want)
	}
}

// FuzzSummarizeChrome: no input panics the parser, and a summary it
// returns without error adds up — its stages' counts sum to Events and no
// stage's total is negative.
func FuzzSummarizeChrome(f *testing.F) {
	f.Add(chromeSeed(f))
	f.Add([]byte(overflowTrace("1", "2.5", "0")))
	f.Add([]byte(overflowTrace("4e15", "5e15"))) // 9·10¹⁸ ns: one digit from overflow
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := SummarizeChrome(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := 0
		for _, s := range sum.Stages {
			n += s.Count
			if s.Total < 0 {
				t.Fatalf("stage %q total %v is negative", s.Stage, s.Total)
			}
		}
		if n != sum.Events {
			t.Fatalf("stage counts sum to %d, Events = %d", n, sum.Events)
		}
	})
}

// FuzzParseExposition: no input panics the parser, and every series it
// returns belongs to a family some TYPE line ("# TYPE name kind") of the
// input declares: its name before any label set, or that name without one
// _bucket, _sum or _count suffix.
func FuzzParseExposition(f *testing.F) {
	r := NewRegistry()
	r.Counter("c_total", L("feed", `a"b\`)).Add(3)
	r.Gauge("g").Set(-2)
	r.Histogram("h", []int64{10, 100}, L("site", "s0")).Observe(70)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(sb.String()))
	f.Add([]byte("# TYPE x counter\nx 1\n"))
	f.Add([]byte("# TYPE x histogram\nx_bucket{le=\"+Inf\"} 2\nx_sum 3\nx_count 2\n"))
	f.Add([]byte("x{a=\"}\"} 1\n"))
	f.Add([]byte("# TYPE x gauge\nx{a=\"\\\\\"} NaN\n"))
	// Accepted before the parser required "#" alone before TYPE and took
	// one suffix off a family name, not a chain of them.
	f.Add([]byte("#x TYPE y gauge\ny 1\n"))
	f.Add([]byte("# TYPE x summary\nx_count_sum 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := ParseExposition(bytes.NewReader(data))
		if err != nil {
			return
		}
		declared := make(map[string]bool)
		for _, line := range strings.Split(string(data), "\n") {
			if fields := strings.Fields(line); len(fields) >= 4 && fields[0] == "#" && fields[1] == "TYPE" {
				declared[fields[2]] = true
			}
		}
		for series := range samples {
			family := series
			if i := strings.IndexByte(family, '{'); i >= 0 {
				family = family[:i]
			}
			base := family
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if b, ok := strings.CutSuffix(family, suffix); ok {
					base = b
					break
				}
			}
			if !declared[family] && !declared[base] {
				t.Fatalf("series %q has no TYPE line for %q or %q", series, family, base)
			}
		}
	})
}
