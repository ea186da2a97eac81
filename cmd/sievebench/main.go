// Command sievebench regenerates every table and figure of the SiEVE
// paper's evaluation and prints them in the paper's layout.
//
// Experiments fan out over a bounded worker pool (-parallel, default
// GOMAXPROCS); results are collected index-stably and every wall-clock
// measurement (Table 3 rates, Figure 4 micro-costs) is taken serially so
// timed sections never contend for cores. The rendered output therefore
// does not depend on the parallelism — only wall-clock does (measured
// rates still vary run to run, as any timing does).
//
// Usage:
//
//	sievebench -list                   # print the known experiment names
//	sievebench -exp all                # everything
//	sievebench -exp all -parallel 1    # sequential reference run
//	sievebench -exp table2 -seconds 120
//	sievebench -exp fig3 -dataset jackson_square
//	sievebench -exp fig4,fig5 -timeout 10m  # e2e experiments share asset prep
//
// The performance benchmark is a separate program: bash bench/run.sh.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"sieve/internal/experiments"
	"sieve/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sievebench: ")
	var (
		exp      = flag.String("exp", "all", "experiment: table1|table2|table3|fig3|fig4|fig5|all")
		list     = flag.Bool("list", false, "print the known experiment names and exit")
		dataset  = flag.String("dataset", "", "restrict fig3 to one labelled dataset")
		seconds  = flag.Int("seconds", 0, "seconds of evaluation video per feed (default 120)")
		train    = flag.Int("train", 0, "seconds of tuning video (default = -seconds)")
		fps      = flag.Int("fps", 0, "synthetic feed fps (default 10)")
		parallel = flag.Int("parallel", 0, "worker pool size (default GOMAXPROCS; 1 = sequential)")
		timeout  = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	)
	flag.Parse()
	if *list {
		fmt.Print(`known experiments (-exp, comma-separated):
  table1  dataset inventory (resolution, fps, classes, event stats)
  table2  tuned vs default encoder configurations per labelled feed
  table3  encoding/analysis rates measured on this host
  fig3    accuracy vs filtering rate: SiEVE vs SIFT vs MSE
  fig4    end-to-end throughput of the five deployments
  fig5    per-hop data movement of the five deployments
  all     everything above

the end-to-end performance benchmark is bash bench/run.sh (see
bench/README.md); micro-benchmarks run via make, not -exp:
  bench-codec    BenchmarkEncodeP / BenchmarkDecodeInto / BenchmarkAnalyze /
                 BenchmarkSADBounded — zero-alloc codec hot path
  bench-cluster  BenchmarkClusterSites — feeds/sec at K=1,2,4 edge sites
  bench-infer    BenchmarkInferBatch (ns/frame at batch 1/4/16 vs the
                 per-frame forward) and BenchmarkPlaneRoundTrip (shared
                 inference plane scheduling overhead)
  bench-ingest   BenchmarkWireIngest — SVWP wire ingest over an in-memory
                 transport vs the same feed added in-process
`)
		return
	}
	opts := experiments.Opts{
		Seconds: *seconds, TrainSeconds: *train, FPS: *fps, Parallel: *parallel,
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	known := map[string]bool{
		"all": true, "table1": true, "table2": true, "table3": true,
		"fig3": true, "fig4": true, "fig5": true,
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		name := strings.TrimSpace(e)
		if name == "" {
			continue
		}
		if !known[name] {
			log.Fatalf("unknown experiment %q (want table1|table2|table3|fig3|fig4|fig5|all)", name)
		}
		want[name] = true
	}
	all := want["all"]

	if all || want["table1"] {
		fmt.Println(experiments.RenderTable1(experiments.Table1(opts)))
	}
	if all || want["fig3"] {
		names := synth.LabelledPresets()
		if *dataset != "" {
			names = []synth.PresetName{synth.PresetName(*dataset)}
		}
		for _, name := range names {
			res, err := experiments.Figure3(ctx, name, opts)
			if err != nil {
				fatalf("figure3 %s: %v", name, err)
			}
			fmt.Println(res.Render())
			fmt.Printf("  mean gap: SiEVE-SIFT %+.1f%%, SiEVE-MSE %+.1f%%\n\n",
				100*res.MeanGapOver("SiEVE", "SIFT"), 100*res.MeanGapOver("SiEVE", "MSE"))
		}
	}
	if all || want["table2"] {
		rows, err := experiments.Table2(ctx, opts)
		if err != nil {
			fatalf("table2: %v", err)
		}
		fmt.Println(experiments.RenderTable2(rows))
	}
	if all || want["table3"] {
		rows, err := experiments.Table3(ctx, opts)
		if err != nil {
			fatalf("table3: %v", err)
		}
		fmt.Println(experiments.RenderTable3(rows))
	}
	if all || want["fig4"] || want["fig5"] {
		results, err := experiments.E2E(ctx, []int{1, 3, 5}, opts)
		if err != nil {
			fatalf("e2e: %v", err)
		}
		if all || want["fig4"] {
			fmt.Println(experiments.RenderFigure4(results))
		}
		if all || want["fig5"] {
			fmt.Println(experiments.RenderFigure5(results))
		}
	}
	if !all && len(want) == 0 {
		flag.Usage()
		os.Exit(2)
	}
}

// fatalf exits with a clearer message when the -timeout deadline killed the
// run.
func fatalf(format string, args ...any) {
	for _, a := range args {
		if err, ok := a.(error); ok && errors.Is(err, context.DeadlineExceeded) {
			log.Fatalf("run exceeded -timeout: "+format, args...)
		}
	}
	log.Fatalf(format, args...)
}
