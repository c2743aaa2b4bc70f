// Command bench is the repository's benchmark: four workloads over the
// elastic array store, measured end to end on an untraced run and layer by
// layer on a traced one, with every output checked. BENCHMARK.json at the
// repository root is its contract; README.md in this directory explains
// the workloads, the metrics and how they interact.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload ingest_wire --seed 7 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --runs 3 --out new.json
//	bash bench/run.sh --compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	workloads := flag.String("workload", "all", "workload to run: one of "+strings.Join(workloadNames, ", ")+", a comma-separated list, or all")
	seed := flag.Int64("seed", 0, "seed the inputs are generated from (0 selects the generators' built-in seeds)")
	seconds := flag.Float64("seconds", 20, "how long each run measures, in seconds")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: alternate untraced and traced passes, per-layer metrics")
	runs := flag.Int("runs", 1, "runs per workload; the record holds their median and quartiles")
	out := flag.String("out", "", "write the full record (environment, per-run values, quartiles) to this JSON file")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "directory the --trace 1 run writes trace-<workload>.json to")
	compare := flag.Bool("compare", false, "compare two records: bench --compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare takes two record files, got %d", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace takes 0 or 1, got %d", *trace))
	}
	if *runs < 1 || *seconds <= 0 {
		fatal(fmt.Errorf("--runs and --seconds must be positive"))
	}
	names := workloadNames
	if *workloads != "all" {
		names = strings.Split(*workloads, ",")
	}
	opt := options{
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		traceDir: *traceDir,
		sz:       fullSizes,
		setups:   3,
	}

	rec := newRecord(opt, *runs)
	ok := true
	for _, name := range names {
		var last *result
		for i := 0; i < *runs; i++ {
			res, err := runWorkload(strings.TrimSpace(name), opt)
			if err != nil {
				fatal(err)
			}
			rec.add(res)
			printResult(os.Stdout, res, opt)
			ok = ok && res.Correct
			last = res
		}
		// The last line of a workload's output is its result in the form
		// the benchmark contract fixes.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if *out != "" {
		if err := rec.write(*out); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
