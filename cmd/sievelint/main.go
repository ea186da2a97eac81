// Command sievelint runs the repository's invariant-enforcing analyzer
// suite (see internal/analysis) over module packages:
//
//	sievelint ./...                  # everything, the CI configuration
//	sievelint -only detclock ./...   # one analyzer
//	sievelint -list                  # describe the analyzers
//
// Exit status is 1 when any diagnostic is reported, 2 on usage or load
// errors. The suite is self-hosted on go/ast + go/types (no module
// downloads), so it runs in hermetic build environments; for the same
// reason it analyzes production files only (_test.go files are skipped —
// their harnesses legitimately use wall clocks and allocation).
//
// Analyzer scoping: detclock applies only to the deterministic packages
// listed in this file — the packages whose outputs are pinned
// byte-identical by golden fixtures and equivalence tests. The other four
// analyzers run everywhere (noalloc triggers only on annotated functions,
// wireexhaustive only on wire enum switches).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"sieve/internal/analysis"
	"sieve/internal/analysis/detclock"
	"sieve/internal/analysis/detmap"
	"sieve/internal/analysis/noalloc"
	"sieve/internal/analysis/sentinel"
	"sieve/internal/analysis/telemetrylint"
	"sieve/internal/analysis/wireexhaustive"
)

// all is the suite in report order.
var all = []*analysis.Analyzer{
	detclock.Analyzer,
	detmap.Analyzer,
	noalloc.Analyzer,
	sentinel.Analyzer,
	telemetrylint.Analyzer,
	wireexhaustive.Analyzer,
}

// deterministicPkgs are the packages under the byte-identical determinism
// contract: their outputs are pinned by golden-SHA fixtures, ResultsDB
// equivalence tests and the VirtualClock event-log tests, so wall-clock
// reads are bugs, not style. cmd/* stays outside; everything it prints as
// timing is explicitly wall-clock reporting.
var deterministicPkgs = map[string]bool{
	"sieve":                      true, // Session/Hub/Cluster/ingest/pusher paths
	"sieve/internal/bitstream":   true,
	"sieve/internal/clock":       true, // the wall clock is the one //sieve:wallclock escape site
	"sieve/internal/cluster":     true,
	"sieve/internal/codec":       true,
	"sieve/internal/container":   true,
	"sieve/internal/experiments": true, // MeasureCosts and Table3 time through the injected clock
	"sieve/internal/faultplan":   true, // fault triggers are frame counts, never wall time
	"sieve/internal/frame":       true,
	"sieve/internal/infer":       true,
	"sieve/internal/labels":      true,
	"sieve/internal/nn":          true,
	"sieve/internal/simnet":      true, // links account virtual time, never sleep
	"sieve/internal/store":       true,
	"sieve/internal/synth":       true,
	"sieve/internal/telemetry":   true, // span timestamps flow through the injected clock
	"sieve/internal/transform":   true,
	"sieve/internal/tuner":       true,
	"sieve/internal/vision":      true,
	"sieve/internal/wire":        true,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("sievelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	selected, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(stderr, "sievelint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.FindModule(".")
	if err != nil {
		fmt.Fprintln(stderr, "sievelint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "sievelint:", err)
		return 2
	}

	type finding struct {
		pos      string
		analyzer string
		msg      string
	}
	var findings []finding
	for _, pkg := range pkgs {
		for _, a := range selected {
			if a.Name == detclock.Analyzer.Name && !deterministicPkgs[pkg.Path] {
				continue
			}
			diags, err := analysis.Run(a, pkg)
			if err != nil {
				fmt.Fprintf(stderr, "sievelint: %s on %s: %v\n", a.Name, pkg.Path, err)
				return 2
			}
			for _, d := range diags {
				findings = append(findings, finding{
					pos:      pkg.Fset.Position(d.Pos).String(),
					analyzer: a.Name,
					msg:      d.Message,
				})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].pos != findings[j].pos {
			return findings[i].pos < findings[j].pos
		}
		return findings[i].analyzer < findings[j].analyzer
	})
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s: [%s] %s\n", f.pos, f.analyzer, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "sievelint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -only list.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
