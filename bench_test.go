// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6), one bench per artifact, plus ablation benches for the design
// choices DESIGN.md calls out. Benches run the Quick configuration so
// `go test -bench=.` completes in minutes; `cmd/elasticbench` (no -quick)
// regenerates the full-scale numbers recorded in EXPERIMENTS.md.
//
// Simulated-time outcomes are attached as custom metrics (sim-minutes,
// rsd-%, node-hours) so the bench output doubles as a results table.
package elastic

import (
	"testing"

	"repro/internal/advisor"
	"repro/internal/experiments"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/workload"
)

func quickCfg() experiments.Config { return experiments.Quick() }

// BenchmarkTable1Taxonomy regenerates Table 1 (partitioner taxonomy).
func BenchmarkTable1Taxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 8 {
			b.Fatal("taxonomy incomplete")
		}
	}
}

// benchScheme runs one (scheme, workload) cell of Figures 4 and 5 and
// reports the paper's metrics for it.
func benchScheme(b *testing.B, kind, wl string) {
	b.Helper()
	cfg := quickCfg()
	var run experiments.SchemeRun
	for i := 0; i < b.N; i++ {
		var gen workload.Generator
		var err error
		if wl == "MODIS" {
			gen, err = workload.NewMODIS(workload.MODISConfig{Cycles: cfg.MODISCycles, BaseCells: cfg.MODISBaseCells})
		} else {
			gen, err = workload.NewAIS(workload.AISConfig{Cycles: cfg.AISCycles, CellsPerCycle: cfg.AISCellsPerCycle})
		}
		if err != nil {
			b.Fatal(err)
		}
		run, err = experiments.RunScheme(cfg, kind, gen)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(run.Insert, "insert-simmin")
	b.ReportMetric(run.Reorg, "reorg-simmin")
	b.ReportMetric(run.SPJ, "spj-simmin")
	b.ReportMetric(run.Science, "science-simmin")
	b.ReportMetric(run.MeanRSD*100, "rsd-%")
}

// BenchmarkFigure4And5MODIS regenerates the MODIS half of Figures 4 and 5:
// one sub-benchmark per partitioning scheme.
func BenchmarkFigure4And5MODIS(b *testing.B) {
	for _, kind := range partition.Kinds() {
		b.Run(kind, func(b *testing.B) { benchScheme(b, kind, "MODIS") })
	}
}

// BenchmarkFigure4And5AIS regenerates the AIS half of Figures 4 and 5.
func BenchmarkFigure4And5AIS(b *testing.B) {
	for _, kind := range partition.Kinds() {
		b.Run(kind, func(b *testing.B) { benchScheme(b, kind, "AIS") })
	}
}

// BenchmarkFigure6Join regenerates Figure 6 (vegetation-index join per
// cycle) for the schemes the figure contrasts, reporting the mean join
// latency.
func BenchmarkFigure6Join(b *testing.B) {
	for _, kind := range []string{partition.KindAppend, partition.KindConsistent, partition.KindKdTree, partition.KindUniform} {
		b.Run(kind, func(b *testing.B) {
			cfg := quickCfg()
			var mean float64
			for i := 0; i < b.N; i++ {
				gen, err := workload.NewMODIS(workload.MODISConfig{Cycles: cfg.MODISCycles, BaseCells: cfg.MODISBaseCells})
				if err != nil {
					b.Fatal(err)
				}
				run, err := experiments.RunScheme(cfg, kind, gen)
				if err != nil {
					b.Fatal(err)
				}
				var sum float64
				for _, s := range run.PerCycle {
					sum += s.Suite.PerQuery["join"].Elapsed.Minutes()
				}
				mean = sum / float64(len(run.PerCycle))
			}
			b.ReportMetric(mean, "join-simmin")
		})
	}
}

// BenchmarkFigure7KNN regenerates Figure 7 (k-NN on skewed AIS data).
func BenchmarkFigure7KNN(b *testing.B) {
	for _, kind := range []string{partition.KindAppend, partition.KindConsistent, partition.KindHilbert, partition.KindKdTree, partition.KindRoundRobin} {
		b.Run(kind, func(b *testing.B) {
			cfg := quickCfg()
			var mean float64
			for i := 0; i < b.N; i++ {
				gen, err := workload.NewAIS(workload.AISConfig{Cycles: cfg.AISCycles, CellsPerCycle: cfg.AISCellsPerCycle})
				if err != nil {
					b.Fatal(err)
				}
				run, err := experiments.RunScheme(cfg, kind, gen)
				if err != nil {
					b.Fatal(err)
				}
				var sum float64
				for _, s := range run.PerCycle {
					sum += s.Suite.PerQuery["modeling"].Elapsed.Minutes()
				}
				mean = sum / float64(len(run.PerCycle))
			}
			b.ReportMetric(mean, "knn-simmin")
		})
	}
}

// BenchmarkFigure8Staircase regenerates Figure 8 (the leading staircase
// under p ∈ {1,3,6}), reporting reorganization counts.
func BenchmarkFigure8Staircase(b *testing.B) {
	var stair experiments.StaircaseResult
	var err error
	for i := 0; i < b.N; i++ {
		stair, err = experiments.Figure8(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range experiments.StaircasePs {
		b.ReportMetric(float64(stair.Reorgs[p]), "reorgs-p"+string(rune('0'+p)))
	}
}

// BenchmarkTable2Tuning regenerates Table 2 (what-if tuning of s).
func BenchmarkTable2Tuning(b *testing.B) {
	var bestAIS, bestMODIS int
	for i := 0; i < b.N; i++ {
		var err error
		_, bestAIS, bestMODIS, err = experiments.Table2(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bestAIS), "best-s-ais")
	b.ReportMetric(float64(bestMODIS), "best-s-modis")
}

// BenchmarkTable3CostModel regenerates Table 3 (analytical vs measured
// node-hours for the three set points).
func BenchmarkTable3CostModel(b *testing.B) {
	cfg := experiments.Config{MODISCycles: 14, MODISBaseCells: 14, AISCycles: 12, AISCellsPerCycle: 2000, CapacityFraction: 7}
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		stair, err := experiments.Figure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows, err = experiments.Table3(cfg, stair)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Estimate, "est-nodehours-p"+string(rune('0'+r.P)))
		b.ReportMetric(r.Measured, "meas-nodehours-p"+string(rune('0'+r.P)))
	}
}

// BenchmarkAblationKdTreeSplit contrasts the paper's storage-median K-d
// splits with blind geometric-midpoint splits (the skew-awareness
// ablation): the reported RSD shows what skew-awareness buys on AIS.
func BenchmarkAblationKdTreeSplit(b *testing.B) {
	for _, mode := range []struct {
		name     string
		midpoint bool
	}{{"median", false}, {"midpoint", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := quickCfg()
			var rsd float64
			for i := 0; i < b.N; i++ {
				gen, err := workload.NewAIS(workload.AISConfig{Cycles: cfg.AISCycles, CellsPerCycle: cfg.AISCellsPerCycle})
				if err != nil {
					b.Fatal(err)
				}
				capacity, err := workloadCapacity(gen, cfg.CapacityFraction)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := NewEngine(gen, Config{
					PartitionerKind:    KindKdTree,
					PartitionerOptions: partition.Options{MidpointSplit: mode.midpoint},
					InitialNodes:       2,
					NodeCapacity:       capacity,
					Cost:               ScaledCostModel(),
					MaxNodes:           8,
				})
				if err != nil {
					b.Fatal(err)
				}
				stats_, err := eng.Run()
				if err != nil {
					b.Fatal(err)
				}
				var rsds []float64
				for _, s := range stats_ {
					rsds = append(rsds, s.RSD)
				}
				rsd = stats.Mean(rsds)
			}
			b.ReportMetric(rsd*100, "rsd-%")
		})
	}
}

// BenchmarkAblationGlobalVsIncremental contrasts total migration volume of
// the global schemes against the incremental ones — the Table 1 trait the
// whole paper revolves around.
func BenchmarkAblationGlobalVsIncremental(b *testing.B) {
	for _, kind := range []string{partition.KindKdTree, partition.KindConsistent, partition.KindRoundRobin, partition.KindUniform} {
		b.Run(kind, func(b *testing.B) {
			cfg := quickCfg()
			var moved int64
			for i := 0; i < b.N; i++ {
				gen, err := workload.NewMODIS(workload.MODISConfig{Cycles: cfg.MODISCycles, BaseCells: cfg.MODISBaseCells})
				if err != nil {
					b.Fatal(err)
				}
				run, err := experiments.RunScheme(cfg, kind, gen)
				if err != nil {
					b.Fatal(err)
				}
				moved = run.MovedBytes
			}
			b.ReportMetric(float64(moved)/1024, "moved-KiB")
		})
	}
}

// BenchmarkAblationVirtualNodes sweeps the consistent-hash ring's replica
// count: balance (RSD) versus table size.
func BenchmarkAblationVirtualNodes(b *testing.B) {
	for _, replicas := range []int{8, 32, 128, 512} {
		b.Run(itoa(replicas), func(b *testing.B) {
			cfg := quickCfg()
			var rsd float64
			for i := 0; i < b.N; i++ {
				gen, err := workload.NewMODIS(workload.MODISConfig{Cycles: cfg.MODISCycles, BaseCells: cfg.MODISBaseCells})
				if err != nil {
					b.Fatal(err)
				}
				capacity, err := workloadCapacity(gen, cfg.CapacityFraction)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := NewEngine(gen, Config{
					PartitionerKind:    KindConsistent,
					PartitionerOptions: partition.Options{VirtualNodes: replicas},
					InitialNodes:       2,
					NodeCapacity:       capacity,
					Cost:               ScaledCostModel(),
					MaxNodes:           8,
				})
				if err != nil {
					b.Fatal(err)
				}
				stats_, err := eng.Run()
				if err != nil {
					b.Fatal(err)
				}
				rsd = stats_[len(stats_)-1].RSD
			}
			b.ReportMetric(rsd*100, "final-rsd-%")
		})
	}
}

// BenchmarkAblationCoAccessAdvisor measures the §8 future-work prototype:
// how much remote co-access traffic the workload-driven repartitioner
// recovers from a hash-scattered placement, and what the migration costs.
func BenchmarkAblationCoAccessAdvisor(b *testing.B) {
	var before, after int64
	var moved int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gen, err := workload.NewMODIS(workload.MODISConfig{Cycles: 3, BaseCells: 16})
		if err != nil {
			b.Fatal(err)
		}
		_, total, err := workload.TotalBytes(gen)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := NewEngine(gen, Config{
			PartitionerKind: KindConsistent,
			InitialNodes:    6,
			NodeCapacity:    total,
			Cost:            ScaledCostModel(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		adv, err := advisor.Advise(eng.Cluster(), []string{"Band1", "Band2"}, 1<<20, 1.4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Cluster().ExecuteRebalance(adv.Plan); err != nil {
			b.Fatal(err)
		}
		before, after, moved = adv.RemoteBytesBefore, adv.RemoteBytesAfter, len(adv.Moves)
	}
	b.ReportMetric(float64(before)/1024, "remote-KiB-before")
	b.ReportMetric(float64(after)/1024, "remote-KiB-after")
	b.ReportMetric(float64(moved), "moves")
}

func workloadCapacity(gen workload.Generator, fraction int) (int64, error) {
	_, total, err := workload.TotalBytes(gen)
	if err != nil {
		return 0, err
	}
	return total/int64(fraction) + 1, nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
