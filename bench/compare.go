package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

func loadResult(path string) (*resultJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res resultJSON
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// Verdicts of one (workload, metric) row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's direction and bound to two sets of repeats.
// worsening is the share of the base median by which the new median is
// worse. A row whose base spread (interquartile distance over median)
// exceeds the bound cannot be resolved by medians — unless every new
// value is better than every base value.
func judge(d metricDef, base, cur *metricJSON) (verdict string, worsening float64) {
	if base.Median == 0 {
		return verdictUnresolved, 0
	}
	worsening = (cur.Median - base.Median) / base.Median
	if d.Better == "higher" {
		worsening = -worsening
	}
	if base.Spread > d.Bound {
		if allBetter(d, base.Values, cur.Values) {
			return verdictBetter, worsening
		}
		return verdictUnresolved, worsening
	}
	switch {
	case worsening > d.Bound:
		return verdictWorse, worsening
	case worsening < -d.Bound:
		return verdictBetter, worsening
	}
	return verdictSame, worsening
}

func allBetter(d metricDef, base, cur []float64) bool {
	if len(base) == 0 || len(cur) == 0 {
		return false
	}
	b, c := sortedCopy(base), sortedCopy(cur)
	if d.Better == "higher" {
		return c[0] > b[len(b)-1]
	}
	return c[len(c)-1] < b[0]
}

// compareMain implements `bench compare base.json new.json`: one row per
// workload and end-to-end metric, exit status 1 on any `worse`.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare base.json new.json")
		return 2
	}
	base, err := loadResult(args[0])
	if err == nil {
		var cur *resultJSON
		if cur, err = loadResult(args[1]); err == nil {
			return compareResults(base, cur)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func compareResults(base, cur *resultJSON) int {
	if base.Seed != cur.Seed || base.Seconds != cur.Seconds || base.Smoke != cur.Smoke {
		fmt.Printf("note: settings differ (seed %d/%d, seconds %g/%g)\n", base.Seed, cur.Seed, base.Seconds, cur.Seconds)
	}
	names := make([]string, 0, len(base.Workloads))
	for name := range base.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-13s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "new", "worsening", "bound", "verdict")
	worse := 0
	for _, name := range names {
		bw, cw := base.Workloads[name], cur.Workloads[name]
		if cw == nil {
			fmt.Printf("%-13s missing from the new result\n", name)
			worse++
			continue
		}
		if cw.Failed > bw.Failed {
			fmt.Printf("%-13s %-26s %14d %14d %9s %7s  %s\n", name, "failed", bw.Failed, cw.Failed, "", "0", verdictWorse)
			worse++
		}
		for _, d := range endToEnd {
			b, c := bw.EndToEnd[d.Name], cw.EndToEnd[d.Name]
			if b == nil || c == nil {
				continue
			}
			verdict, worsening := judge(d, b, c)
			if verdict == verdictWorse {
				worse++
			}
			fmt.Printf("%-13s %-26s %14.6g %14.6g %+9.4f %7.2f  %s\n", name, d.Name, b.Median, c.Median, worsening, d.Bound, verdict)
		}
	}
	if worse > 0 {
		fmt.Printf("%d rows worse\n", worse)
		return 1
	}
	return 0
}
