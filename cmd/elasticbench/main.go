// Command elasticbench regenerates the tables and figures of Duggan &
// Stonebraker, "Incremental Elasticity for Array Databases" (SIGMOD 2014)
// on the scaled simulation substrate.
//
// Usage:
//
//	elasticbench -exp all            # every table and figure (default)
//	elasticbench -exp fig4,fig5      # a subset
//	elasticbench -exp table3 -quick  # fast, scaled-down configuration
//	elasticbench -json BENCH.json    # emit hot-path micro-benchmarks as JSON
//	elasticbench -json BENCH_PR2.json -compare BENCH_PR1.json
//	                                 # …and print the per-benchmark delta
//
// Experiments: table1, fig4, fig5, fig6, fig7, fig8, table2, table3, cost,
// queries. An unknown name is an error (exit status 2).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
)

// experimentNames are the values -exp accepts besides "all".
var experimentNames = []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "table2", "table3", "cost", "queries"}

// parseExperiments turns the -exp value into a selection predicate,
// rejecting names that are not experiments.
func parseExperiments(spec string) (pick func(string) bool, err error) {
	want := map[string]bool{}
	for _, e := range strings.Split(spec, ",") {
		name := strings.TrimSpace(strings.ToLower(e))
		if name != "all" && !slices.Contains(experimentNames, name) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", name, strings.Join(experimentNames, ", "))
		}
		want[name] = true
	}
	return func(name string) bool { return want["all"] || want[name] }, nil
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experimentNames, ",")+",all")
	quick := flag.Bool("quick", false, "use the scaled-down quick configuration")
	jsonPath := flag.String("json", "", "write hot-path micro-benchmark results to this file as JSON and exit")
	comparePath := flag.String("compare", "", "previously recorded BENCH_PR<N>.json to diff the micro-benchmarks against")
	flag.Parse()

	if *jsonPath != "" || *comparePath != "" {
		report, err := measureBench()
		if err != nil {
			fmt.Fprintln(os.Stderr, "elasticbench:", err)
			os.Exit(1)
		}
		if *jsonPath != "" {
			if err := writeBenchJSON(*jsonPath, report); err != nil {
				fmt.Fprintln(os.Stderr, "elasticbench:", err)
				os.Exit(1)
			}
			fmt.Println("wrote", *jsonPath)
		}
		if *comparePath != "" {
			baseline, err := readBenchJSON(*comparePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "elasticbench:", err)
				os.Exit(1)
			}
			printComparison(os.Stdout, baseline, report, *comparePath)
		}
		return
	}

	cfg := experiments.Config{}
	if *quick {
		cfg = experiments.Quick()
	}
	pick, err := parseExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elasticbench:", err)
		os.Exit(2)
	}
	if err := run(cfg, pick); err != nil {
		fmt.Fprintln(os.Stderr, "elasticbench:", err)
		os.Exit(1)
	}
}

func run(cfg experiments.Config, pick func(string) bool) error {
	out := os.Stdout
	if pick("table1") {
		experiments.RenderTable1(out, experiments.Table1())
		fmt.Fprintln(out)
	}
	needSweep := pick("fig4") || pick("fig5") || pick("fig6") || pick("fig7") || pick("cost") || pick("queries")
	if needSweep {
		sweep, err := experiments.Sweep(cfg)
		if err != nil {
			return err
		}
		if pick("fig4") {
			experiments.RenderFigure4(out, experiments.Figure4(sweep))
			fmt.Fprintln(out)
		}
		if pick("fig5") {
			experiments.RenderFigure5(out, experiments.Figure5(sweep))
			fmt.Fprintln(out)
		}
		if pick("fig6") {
			experiments.RenderSeries(out, "Figure 6: Join duration for unskewed data (MODIS vegetation index, simulated minutes)", experiments.Figure6(sweep))
			fmt.Fprintln(out)
		}
		if pick("fig7") {
			experiments.RenderSeries(out, "Figure 7: k-nearest neighbors on skewed data (AIS, simulated minutes)", experiments.Figure7(sweep))
			fmt.Fprintln(out)
		}
		if pick("cost") {
			experiments.RenderSweepTotals(out, sweep)
			fmt.Fprintln(out)
		}
		if pick("queries") {
			for _, wl := range []string{"MODIS", "AIS"} {
				experiments.RenderBreakdown(out, wl, experiments.QueryBreakdown(sweep, wl))
				fmt.Fprintln(out)
			}
		}
	}
	needStair := pick("fig8") || pick("table3")
	if needStair {
		stair, err := experiments.Figure8(cfg)
		if err != nil {
			return err
		}
		if pick("fig8") {
			experiments.RenderFigure8(out, stair)
			fmt.Fprintln(out)
		}
		if pick("table3") {
			rows, err := experiments.Table3(cfg, stair)
			if err != nil {
				return err
			}
			experiments.RenderTable3(out, rows)
			fmt.Fprintln(out)
		}
	}
	if pick("table2") {
		rows, bestAIS, bestMODIS, err := experiments.Table2(cfg)
		if err != nil {
			return err
		}
		experiments.RenderTable2(out, rows, bestAIS, bestMODIS)
		fmt.Fprintln(out)
	}
	return nil
}
