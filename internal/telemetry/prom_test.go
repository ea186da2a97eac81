package telemetry

import (
	"strings"
	"testing"
)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Describe("sieve_frames_total", "frames encoded")
	r.Counter("sieve_frames_total", L("feed", "cam-a")).Add(12)
	r.Counter("sieve_frames_total", L("feed", "cam-b")).Add(7)
	r.Gauge("sieve_depth").Set(3)
	h := r.Histogram("sieve_frame_bytes", []int64{100, 1000}, L("feed", "cam-a"))
	h.Observe(50)
	h.Observe(500)
	h.Observe(5000)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wantLines := []string{
		"# TYPE sieve_depth gauge",
		"sieve_depth 3",
		"# TYPE sieve_frame_bytes histogram",
		`sieve_frame_bytes_bucket{feed="cam-a",le="100"} 1`,
		`sieve_frame_bytes_bucket{feed="cam-a",le="1000"} 2`,
		`sieve_frame_bytes_bucket{feed="cam-a",le="+Inf"} 3`,
		`sieve_frame_bytes_sum{feed="cam-a"} 5550`,
		`sieve_frame_bytes_count{feed="cam-a"} 3`,
		"# HELP sieve_frames_total frames encoded",
		"# TYPE sieve_frames_total counter",
		`sieve_frames_total{feed="cam-a"} 12`,
		`sieve_frames_total{feed="cam-b"} 7`,
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(wantLines) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(wantLines), out)
	}
	for i, want := range wantLines {
		if lines[i] != want {
			t.Errorf("line %d = %q, want %q", i, lines[i], want)
		}
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	build := func(reverse bool) string {
		r := NewRegistry()
		feeds := []string{"a", "b", "c"}
		if reverse {
			feeds = []string{"c", "b", "a"}
		}
		for _, f := range feeds {
			r.Counter("frames_total", L("feed", f)).Add(int64(len(f)))
		}
		r.Gauge("depth").Set(1)
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if build(false) != build(true) {
		t.Fatal("exposition depends on registration order")
	}
}

func TestParseExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("sieve_frames_total", L("feed", "cam")).Add(42)
	r.Gauge("sieve_depth").Set(5)
	r.Histogram("sieve_bytes", []int64{10}).Observe(7)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := samples[`sieve_frames_total{feed="cam"}`]; got != 42 {
		t.Fatalf("parsed counter = %v, want 42", got)
	}
	if got := samples[`sieve_bytes_bucket{le="+Inf"}`]; got != 1 {
		t.Fatalf("parsed +Inf bucket = %v, want 1", got)
	}
	if got := samples["sieve_depth"]; got != 5 {
		t.Fatalf("parsed gauge = %v, want 5", got)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no value":       "# TYPE x counter\nx{feed=\"a\"}\n",
		"bad value":      "# TYPE x counter\nx potato\n",
		"no type":        "y 3\n",
		"unknown type":   "# TYPE x widget\nx 3\n",
		"unterminated":   "# TYPE x counter\nx{feed=\"a\" 3\n",
		"empty exposure": "\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", L("path", `a\b"c`)).Add(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `m{path="a\\b\"c"} 1`) {
		t.Fatalf("escaping wrong:\n%s", sb.String())
	}
	if _, err := ParseExposition(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("escaped exposition does not parse: %v", err)
	}
}

// FuzzExpositionRoundTrip: whatever a label value holds — feed names come
// from a wire HELLO, any 1–255 bytes — and whatever the instrument values,
// every series WritePrometheus emits parses back through ParseExposition
// under its own key with its own value. The seeds are the escaping edge
// cases: a value ending in one or two backslashes (whose closing quote
// follows an escaped backslash, not an escaped quote), an embedded quote,
// an escaped quote, and a newline.
func FuzzExpositionRoundTrip(f *testing.F) {
	for _, v := range []string{`a\`, `a\\`, `a"b`, `a\"`, "a\nb"} {
		f.Add(v, int64(3), int64(-2), int64(70))
	}
	f.Fuzz(func(t *testing.T, value string, c, g, h int64) {
		if len(value) > 255 {
			t.Skip("a HELLO feed name is at most 255 bytes")
		}
		r := NewRegistry()
		lbl := L("feed", value)
		r.Counter("c_total", lbl).Add(c)
		r.Gauge("g", lbl).Set(g)
		r.Histogram("h", []int64{10, 100}, lbl).Observe(h)
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		samples, err := ParseExposition(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("own exposition rejected: %v\n%s", err, sb.String())
		}
		bucket := func(le string, bound int64) (string, int64) {
			n := int64(0)
			if le == "+Inf" || h <= bound {
				n = 1
			}
			return Key("h_bucket", lbl, L("le", le)), n
		}
		want := map[string]int64{
			Key("c_total", lbl): c,
			Key("g", lbl):       g,
			Key("h_sum", lbl):   h,
			Key("h_count", lbl): 1,
		}
		for _, b := range []struct {
			le    string
			bound int64
		}{{"10", 10}, {"100", 100}, {"+Inf", 0}} {
			k, n := bucket(b.le, b.bound)
			want[k] = n
		}
		if len(samples) != len(want) {
			t.Fatalf("parsed %d series, want %d:\n%s", len(samples), len(want), sb.String())
		}
		for k, v := range want {
			got, ok := samples[k]
			if !ok {
				t.Fatalf("series %q missing from the parse:\n%s", k, sb.String())
			}
			if got != float64(v) {
				t.Fatalf("series %q = %v, want %d", k, got, v)
			}
		}
	})
}
