// Command bench is the repository's one end-to-end benchmark: four named
// workloads driven through the public API of package sieve with the trained
// detector on, end-to-end metrics measured with tracing off, and a separate
// traced run that attributes time to layers from outside. See README.md in
// this directory and BENCHMARK.json at the repository root.
//
// Usage:
//
//	go run ./bench                          # every workload, both runs, all metrics
//	go run ./bench -repeat 5 -json out.json # repeat the untraced part, save the result
//	go run ./bench compare base.json new.json
//	go run ./bench -workload edge_busy -seed 3 -seconds 10 -trace 0   # one driver run
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run only this workload (default: all four)")
		seed     = flag.Uint64("seed", 1, "workload seed: scene, object and noise seeds derive from it")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run (default: both). With -workload and without -repeat, the last line printed is the driver's result line")
		repeat   = flag.Int("repeat", 1, "rerun the untraced part this many times and print median, quartiles and spread")
		jsonOut  = flag.String("json", "", "write the full result (metrics, sample counts, replay spans) to this file")
		smoke    = flag.Bool("smoke", false, "tiny fixed sizes: checks that every workload runs and its correctness gate is green")
		pin      = flag.Bool("pin", false, "rewrite bench/expected.json from this code's exact counts for seeds 1 and 2")
	)
	flag.Parse()
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	if *pin {
		os.Exit(pinMain(sz))
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
		if workloadWhy[*workload] == "" {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
			os.Exit(2)
		}
	}
	os.Exit(run(names, *seed, *seconds, *trace, *repeat, *jsonOut, sz))
}

// resultLine is one run as the driver reads it: one workload, one mode, one
// JSON object.
func resultLine(r *reading) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range r.metrics.defs {
		out.Metrics[d.Name] = value{r.metrics.values[d.Name], d.Unit}
	}
	line, err := json.Marshal(out)
	return string(line), err
}

// printReading prints every metric as `workload metric value unit`, its
// sample count beside it.
func printReading(workload string, r *reading) {
	for _, d := range r.metrics.defs {
		line := fmt.Sprintf("%-13s %-34s %16.6g %-13s", workload, d.Name, r.metrics.values[d.Name], d.Unit)
		if n := r.metrics.n[d.Name]; n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		if k := kindOf(d.Name); k != kindMeasured {
			line += " (" + k + ")"
		}
		fmt.Println(line)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-13s %-34s %16.6g %-13s attempted=%d\n", workload, "failed_share", share, "share", r.attempted)
	if r.disturbed {
		fmt.Printf("%-13s disturbed: the generator ran more than %v late; the run was repeated once\n", workload, lateLimit)
	}
	for _, n := range r.notes {
		fmt.Printf("%-13s NOTE: %s\n", workload, n)
	}
	for _, p := range r.problems {
		fmt.Printf("%-13s FAILED: %s\n", workload, p)
	}
}

// metricJSON is one metric of the saved result.
type metricJSON struct {
	Unit   string    `json:"unit"`
	Kind   string    `json:"kind"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	N      int       `json:"n,omitempty"`
}

type workloadJSON struct {
	EndToEnd  map[string]*metricJSON `json:"end_to_end,omitempty"`
	PerLayer  map[string]*metricJSON `json:"per_layer,omitempty"`
	Counts    map[string]int64       `json:"counts,omitempty"`
	Drift     []string               `json:"drift,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Disturbed bool                   `json:"disturbed,omitempty"`
	Problems  []string               `json:"problems,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	Spans     []span                 `json:"spans,omitempty"`
}

type resultJSON struct {
	Host       string                   `json:"host"`
	NProc      int                      `json:"nproc"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	GoVersion  string                   `json:"go_version"`
	CPU        string                   `json:"cpu"`
	GitSHA     string                   `json:"git_sha"`
	Seed       uint64                   `json:"seed"`
	Seconds    float64                  `json:"seconds"`
	Repeat     int                      `json:"repeat"`
	Smoke      bool                     `json:"smoke,omitempty"`
	Workloads  map[string]*workloadJSON `json:"workloads"`
	// Claim is always null: this benchmark defines the measurement and
	// claims no gain.
	Claim *string `json:"claim"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func addValue(dst map[string]*metricJSON, d metricDef, v float64, n int) {
	mj := dst[d.Name]
	if mj == nil {
		mj = &metricJSON{Unit: d.Unit, Kind: kindOf(d.Name), Better: d.Better, Bound: d.Bound}
		dst[d.Name] = mj
	}
	mj.Values = append(mj.Values, v)
	mj.Q1, mj.Median, mj.Q3 = quartiles(mj.Values)
	mj.Spread = relSpread(mj.Values)
	mj.N = n
}

// run measures the chosen workloads: the untraced part `repeat` times, then
// the traced run, and prints and saves everything. With one workload, one
// mode and no repeats — a run as the driver makes it — the last line printed
// is the driver's result line.
func run(names []string, seed uint64, seconds float64, trace, repeat int, jsonOut string, sz sizes) int {
	host, _ := os.Hostname()
	res := &resultJSON{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), GitSHA: gitSHA(), Seed: seed, Seconds: seconds, Repeat: repeat, Smoke: !sz.pinned,
		Workloads: map[string]*workloadJSON{},
	}
	failed := false
	var last *reading
	for _, name := range names {
		wj := &workloadJSON{EndToEnd: map[string]*metricJSON{}, PerLayer: map[string]*metricJSON{}}
		res.Workloads[name] = wj
		measureOnce := func(traced bool) error {
			r, err := runWorkload(name, seed, seconds, traced, sz)
			if err != nil {
				return err
			}
			printReading(name, r)
			dst := wj.EndToEnd
			if traced {
				dst = wj.PerLayer
				wj.Spans = r.spans
			} else {
				// The pinned counts are those of the untraced run.
				wj.Counts = r.counts
				wj.Drift = reportDrift(name, seed, seconds, sz, r)
			}
			for _, d := range r.metrics.defs {
				addValue(dst, d, r.metrics.values[d.Name], r.metrics.n[d.Name])
			}
			wj.Attempted += r.attempted
			wj.Failed += r.failed
			wj.Problems = append(wj.Problems, r.problems...)
			wj.Notes = append(wj.Notes, r.notes...)
			wj.Disturbed = wj.Disturbed || r.disturbed
			last = r
			return nil
		}
		for i := 0; i < repeat && trace != 1; i++ {
			if err := measureOnce(false); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		if trace != 0 {
			if err := measureOnce(true); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		if wj.Failed != 0 {
			failed = true
		}
	}
	if repeat > 1 {
		printSpread(names, res)
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	summary, _ := json.Marshal(struct {
		Workloads []string `json:"workloads"`
		Correct   bool     `json:"correct"`
		GitSHA    string   `json:"git_sha"`
		Claim     *string  `json:"claim"`
	}{names, !failed, res.GitSHA, nil})
	fmt.Println(string(summary))
	if len(names) == 1 && trace >= 0 && repeat == 1 {
		line, err := resultLine(last)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(line)
	}
	if failed {
		return 1
	}
	return 0
}

// printSpread prints median, quartiles and relative spread of every
// end-to-end metric over the repeats.
func printSpread(names []string, res *resultJSON) {
	fmt.Printf("\n%-13s %-26s %14s %14s %14s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			mj := res.Workloads[name].EndToEnd[d.Name]
			if mj == nil {
				continue
			}
			fmt.Printf("%-13s %-26s %14.6g %14.6g %14.6g %8.4f %8.2f\n", name, d.Name, mj.Q1, mj.Median, mj.Q3, mj.Spread, d.Bound)
		}
	}
}

// expectedFile is where the exact counts of seeds 1 and 2 are pinned
// (seed -> workload -> count); the binary carries the copy it was built with.
const expectedFile = "bench/expected.json"

//go:embed expected.json
var expectedJSON []byte

type expectedCounts map[string]map[string]map[string]int64

// reportDrift compares a run's exact counts with expected.json and names
// every one that moved. A drift is not a failure: it says the bitstream or
// a protocol changed, and the change that did it must re-pin on purpose
// (`go run ./bench -pin`).
func reportDrift(workload string, seed uint64, seconds float64, sz sizes, r *reading) []string {
	if !sz.pinned || r.traced || (workload == wirePaced && seconds != defaultSeconds) {
		return nil
	}
	var exp expectedCounts
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return []string{fmt.Sprintf("%s unreadable: %v", expectedFile, err)}
	}
	want := exp[fmt.Sprint(seed)][workload]
	var drift []string
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got, ok := r.counts[k]; !ok || got != want[k] {
			drift = append(drift, fmt.Sprintf("%s: pinned %d, got %d", k, want[k], r.counts[k]))
		}
	}
	for _, d := range drift {
		fmt.Printf("%-13s DRIFT (seed %d) %s — re-pin with -pin if intended\n", workload, seed, d)
	}
	return drift
}

// pinMain records the exact counts of seeds 1 and 2.
func pinMain(sz sizes) int {
	exp := expectedCounts{}
	for _, seed := range []uint64{1, 2} {
		exp[fmt.Sprint(seed)] = map[string]map[string]int64{}
		for _, name := range workloadNames {
			one := sz
			one.setupReps = 1
			seconds := 1.0
			if name == wirePaced {
				seconds = defaultSeconds // its counts scale with the run length
			}
			r, err := runWorkload(name, seed, seconds, false, one)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			exp[fmt.Sprint(seed)][name] = r.counts
		}
	}
	data, err := json.MarshalIndent(exp, "", " ")
	if err == nil {
		err = os.WriteFile(expectedFile, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("wrote", expectedFile)
	return 0
}
