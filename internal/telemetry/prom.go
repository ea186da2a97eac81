package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name with # HELP/# TYPE
// headers, series sorted by label key, histograms as cumulative
// _bucket/_sum/_count series. Output is deterministic for a given set of
// instrument values. OnCollect hooks run first.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.runCollectors()
	entries := r.sortedEntries()
	r.mu.Lock()
	kinds := make(map[string]string, len(r.kinds))
	help := make(map[string]string, len(r.help))
	for k, v := range r.kinds {
		kinds[k] = v
	}
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, e := range entries {
		if e.name != lastFamily {
			lastFamily = e.name
			if h := help[e.name]; h != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", e.name, h)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", e.name, kinds[e.name])
		}
		switch {
		case e.c != nil:
			fmt.Fprintf(bw, "%s %d\n", e.key, e.c.Value())
		case e.g != nil:
			fmt.Fprintf(bw, "%s %d\n", e.key, e.g.Value())
		case e.h != nil:
			writeHistogram(bw, e)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("telemetry: writing exposition: %w", err)
	}
	return nil
}

// writeHistogram renders one histogram series as cumulative buckets.
func writeHistogram(w io.Writer, e *entry) {
	cum := int64(0)
	for i, b := range e.h.bounds {
		cum += e.h.buckets[i].Load()
		fmt.Fprintf(w, "%s%s %d\n", e.name+"_bucket", renderLabels(withLE(e.labels, strconv.FormatInt(b, 10))), cum)
	}
	cum += e.h.buckets[len(e.h.bounds)].Load()
	fmt.Fprintf(w, "%s%s %d\n", e.name+"_bucket", renderLabels(withLE(e.labels, "+Inf")), cum)
	fmt.Fprintf(w, "%s%s %d\n", e.name+"_sum", renderLabels(e.labels), e.h.Sum())
	fmt.Fprintf(w, "%s%s %d\n", e.name+"_count", renderLabels(e.labels), e.h.Count())
}

// withLE appends the `le` bucket label to a label set.
func withLE(labels []Label, le string) []Label {
	out := make([]Label, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, Label{Key: "le", Value: le})
}

// ParseExposition parses and validates Prometheus text-format output as
// produced by WritePrometheus, returning every sample keyed by its series
// string. It errors on malformed lines, unparseable values, TYPE lines
// with unknown kinds, and samples of families never declared by a TYPE
// line — the checks the obs-smoke job runs against a live scrape.
func ParseExposition(r io.Reader) (map[string]float64, error) {
	samples := make(map[string]float64)
	typed := make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
					typed[fields[2]] = fields[3]
				default:
					return nil, fmt.Errorf("telemetry: exposition line %d: unknown type %q", line, fields[3])
				}
			}
			continue
		}
		// Sample line: `series value` where series may carry {labels}
		// containing spaces inside quoted values.
		cut := sampleValueIndex(text)
		if cut < 0 {
			return nil, fmt.Errorf("telemetry: exposition line %d: no value: %q", line, text)
		}
		series, valueText := strings.TrimSpace(text[:cut]), strings.TrimSpace(text[cut:])
		v, err := strconv.ParseFloat(valueText, 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: exposition line %d: bad value %q", line, valueText)
		}
		family := series
		if i := strings.IndexByte(family, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				return nil, fmt.Errorf("telemetry: exposition line %d: unterminated labels: %q", line, series)
			}
			family = family[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(family, "_bucket"), "_sum"), "_count")
		if _, ok := typed[family]; !ok {
			if _, ok := typed[base]; !ok {
				return nil, fmt.Errorf("telemetry: exposition line %d: sample %q has no TYPE declaration", line, family)
			}
		}
		samples[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading exposition: %w", err)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("telemetry: exposition is empty")
	}
	return samples, nil
}

// sampleValueIndex finds the byte offset where a sample line's value
// begins: the last space-separated token outside label braces. Inside a
// quoted label value a backslash escapes the byte after it, so `\\"`
// closes the value and `\"` does not.
func sampleValueIndex(s string) int {
	depth := 0
	inQuote := false
	last := -1
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case '{':
			if !inQuote {
				depth++
			}
		case '}':
			if !inQuote {
				depth--
			}
		case ' ', '\t':
			if !inQuote && depth == 0 {
				last = i
			}
		}
	}
	return last
}
