package experiments

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"repro/internal/partition"
)

// The sweep is the expensive fixture; compute it once for all tests.
var (
	sweepOnce sync.Once
	sweepRes  map[string]map[string]SchemeRun
	sweepErr  error

	stairOnce sync.Once
	stairRes  StaircaseResult
	stairErr  error
)

func quickSweep(t *testing.T) map[string]map[string]SchemeRun {
	t.Helper()
	sweepOnce.Do(func() {
		sweepRes, sweepErr = Sweep(Quick())
	})
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	return sweepRes
}

// stairConfig uses the paper's cycle counts (the staircase dynamics need a
// long, gentle demand ramp) at reduced cell counts.
func stairConfig() Config {
	return Config{
		MODISCycles:      14,
		MODISBaseCells:   14,
		AISCycles:        12,
		AISCellsPerCycle: 2000,
		CapacityFraction: 7,
	}
}

func quickStair(t *testing.T) StaircaseResult {
	t.Helper()
	stairOnce.Do(func() {
		stairRes, stairErr = Figure8(stairConfig())
	})
	if stairErr != nil {
		t.Fatal(stairErr)
	}
	return stairRes
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 8 {
		t.Fatalf("Table 1 has %d rows, want 8", len(rows))
	}
	counts := map[string]int{
		"Append": 2, "Cons. Hash": 2, "Extend. Hash": 3, "Hilbert Curve": 3,
		"Incr. Quadtree": 3, "K-d Tree": 3, "Round Robin": 1, "Uniform Range": 1,
	}
	for _, r := range rows {
		got := 0
		for _, trait := range []bool{r.Features.IncrementalScaleOut, r.Features.FineGrained, r.Features.SkewAware, r.Features.NDimensionalClustering} {
			if trait {
				got++
			}
		}
		if got != counts[r.Scheme] {
			t.Errorf("%s has %d traits, want %d", r.Scheme, got, counts[r.Scheme])
		}
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if buf.Len() == 0 {
		t.Error("render produced nothing")
	}
}

func TestFigure4Shapes(t *testing.T) {
	sweep := quickSweep(t)
	rows := Figure4(sweep)
	if len(rows) != 8 {
		t.Fatalf("Figure 4 has %d rows, want 8", len(rows))
	}
	byName := map[string]Fig4Row{}
	for _, r := range rows {
		byName[r.Scheme] = r
	}
	// Insert time is near constant across schemes (±60%), with Append
	// the slowest (it almost always inserts over the network).
	var minIns, maxIns = math.Inf(1), 0.0
	for _, r := range rows {
		if r.InsertMODIS < minIns {
			minIns = r.InsertMODIS
		}
		if r.InsertMODIS > maxIns {
			maxIns = r.InsertMODIS
		}
	}
	if maxIns > 1.6*minIns {
		t.Errorf("insert times should be near constant: min %.1f max %.1f", minIns, maxIns)
	}
	if byName["Append"].InsertMODIS < maxIns {
		t.Error("Append should have the slowest insert")
	}
	// Append requires no data movement: its reorganization is minimal.
	for _, r := range rows {
		if r.Scheme == "Append" {
			continue
		}
		if byName["Append"].ReorgMODIS >= r.ReorgMODIS {
			t.Errorf("Append reorg %.1f should undercut %s's %.1f", byName["Append"].ReorgMODIS, r.Scheme, r.ReorgMODIS)
		}
	}
	// Global schemes reorganize much longer than the incremental mean
	// on the near-uniform MODIS workload (paper: 2.5×; the Quick
	// preset's smaller migrations compress the ratio, so assert 1.2×
	// here — the full configuration recovers ≈2×, see EXPERIMENTS.md).
	incr := (byName["Cons. Hash"].ReorgMODIS + byName["Extend. Hash"].ReorgMODIS +
		byName["Hilbert Curve"].ReorgMODIS + byName["Incr. Quadtree"].ReorgMODIS +
		byName["K-d Tree"].ReorgMODIS) / 5
	if byName["Round Robin"].ReorgMODIS < 1.2*incr {
		t.Errorf("Round Robin reorg %.1f should exceed incremental mean %.1f by 1.2x", byName["Round Robin"].ReorgMODIS, incr)
	}
	if byName["Uniform Range"].ReorgMODIS < 1.2*incr {
		t.Errorf("Uniform Range reorg %.1f should exceed incremental mean %.1f by 1.2x", byName["Uniform Range"].ReorgMODIS, incr)
	}
	// Fine-grained schemes balance storage far better than the coarse
	// range schemes (paper: 13% vs 44% mean RSD).
	fine := (byName["Round Robin"].RSDMODIS + byName["Cons. Hash"].RSDMODIS + byName["Extend. Hash"].RSDMODIS +
		byName["Round Robin"].RSDAIS + byName["Cons. Hash"].RSDAIS + byName["Extend. Hash"].RSDAIS) / 6
	coarse := (byName["Append"].RSDMODIS + byName["K-d Tree"].RSDMODIS + byName["Incr. Quadtree"].RSDMODIS +
		byName["Append"].RSDAIS + byName["K-d Tree"].RSDAIS + byName["Incr. Quadtree"].RSDAIS) / 6
	if fine >= coarse {
		t.Errorf("fine-grained mean RSD %.2f should beat coarse %.2f", fine, coarse)
	}
	// Uniform Range is brittle to AIS skew: worst RSD of all schemes.
	for _, r := range rows {
		if r.Scheme == "Uniform Range" {
			continue
		}
		if byName["Uniform Range"].RSDAIS < r.RSDAIS {
			t.Errorf("Uniform Range AIS RSD %.2f should be the worst; %s has %.2f", byName["Uniform Range"].RSDAIS, r.Scheme, r.RSDAIS)
		}
	}
	var buf bytes.Buffer
	RenderFigure4(&buf, rows)
	if buf.Len() == 0 {
		t.Error("render produced nothing")
	}
}

func TestFigure5Shapes(t *testing.T) {
	sweep := quickSweep(t)
	rows := Figure5(sweep)
	byName := map[string]Fig5Row{}
	for _, r := range rows {
		byName[r.Scheme] = r
	}
	// The skew-aware n-D clustered schemes lead the science analytics.
	spatialSci := (byName["K-d Tree"].ScienceAIS + byName["Incr. Quadtree"].ScienceAIS + byName["Hilbert Curve"].ScienceAIS) / 3
	hashSci := (byName["Cons. Hash"].ScienceAIS + byName["Round Robin"].ScienceAIS) / 2
	if spatialSci >= hashSci {
		t.Errorf("spatial schemes' AIS science %.1f should beat hash schemes' %.1f", spatialSci, hashSci)
	}
	// Uniform Range slightly outperforms the splitters on MODIS science
	// (its expensive global redistribution buys marginally better
	// balance) — assert it is at least competitive.
	if byName["Uniform Range"].ScienceMODIS > 1.15*byName["K-d Tree"].ScienceMODIS {
		t.Errorf("Uniform Range MODIS science %.1f should be competitive with K-d Tree %.1f", byName["Uniform Range"].ScienceMODIS, byName["K-d Tree"].ScienceMODIS)
	}
}

func TestWorkloadCostTopSchemes(t *testing.T) {
	// Section 6.2.3: the skew-aware, incremental, multidimensionally
	// clustered strategies have the lowest end-to-end workload cost,
	// comfortably beating the baseline.
	sweep := quickSweep(t)
	total := func(wl, kind string) float64 { return sweep[wl][kind].TotalMinutes() }
	for _, wl := range []string{"MODIS", "AIS"} {
		spatial := (total(wl, partition.KindKdTree) + total(wl, partition.KindQuadtree) + total(wl, partition.KindHilbert)) / 3
		baseline := total(wl, partition.KindRoundRobin)
		if spatial >= baseline {
			t.Errorf("%s: spatial mean %.1f should beat the Round Robin baseline %.1f", wl, spatial, baseline)
		}
		if total(wl, partition.KindUniform) <= spatial {
			t.Errorf("%s: Uniform Range %.1f should trail the spatial schemes %.1f end to end", wl, total(wl, partition.KindUniform), spatial)
		}
	}
}

func TestFigure6AppendErratic(t *testing.T) {
	sweep := quickSweep(t)
	rows := Figure6(sweep)
	if len(rows) == 0 {
		t.Fatal("no Figure 6 rows")
	}
	// Append's join latency dominates every other scheme's on average
	// (the joined day lives on one or two hosts), and is erratic.
	var appendSum, othersSum float64
	var appendVals []float64
	nOthers := 0
	for _, row := range rows {
		for scheme, m := range row.Minutes {
			if scheme == "Append" {
				appendSum += m
				appendVals = append(appendVals, m)
			} else {
				othersSum += m
				nOthers++
			}
		}
	}
	appendMean := appendSum / float64(len(rows))
	othersMean := othersSum / float64(nOthers)
	if appendMean <= othersMean {
		t.Errorf("Append mean join %.2f should exceed the field's %.2f", appendMean, othersMean)
	}
	var buf bytes.Buffer
	RenderSeries(&buf, "fig6", rows)
	if buf.Len() == 0 {
		t.Error("render produced nothing")
	}
}

func TestFigure7SpatialSchemesWin(t *testing.T) {
	sweep := quickSweep(t)
	rows := Figure7(sweep)
	mean := func(scheme string) float64 {
		var sum float64
		for _, row := range rows {
			sum += row.Minutes[scheme]
		}
		return sum / float64(len(rows))
	}
	// K-d Tree and Hilbert Curve complete the k-NN query well below the
	// baseline and the hash schemes (paper: half the duration).
	if mean("K-d Tree") >= mean("Round Robin") {
		t.Errorf("K-d Tree kNN %.2f should beat Round Robin %.2f", mean("K-d Tree"), mean("Round Robin"))
	}
	clustered := (mean("K-d Tree") + mean("Hilbert Curve")) / 2
	scattered := (mean("Cons. Hash") + mean("Round Robin")) / 2
	if clustered >= scattered {
		t.Errorf("clustered kNN mean %.2f should beat scattered %.2f", clustered, scattered)
	}
}

func TestFigure8Staircase(t *testing.T) {
	stair := quickStair(t)
	if len(stair.Rows) == 0 {
		t.Fatal("no staircase rows")
	}
	for _, p := range StaircasePs {
		prev := 0
		for i, row := range stair.Rows {
			n := row.Nodes[p]
			if n < prev {
				t.Fatalf("p=%d: cluster shrank at cycle %d", p, row.Cycle)
			}
			prev = n
			// The staircase leads demand: capacity covers it at the
			// end of every cycle.
			if float64(n) < row.DemandNodes-1e-9 {
				t.Errorf("p=%d cycle %d: %d nodes below demand %.2f", p, row.Cycle, n, row.DemandNodes)
			}
			_ = i
		}
	}
	// Lazier settings reorganize more often.
	if !(stair.Reorgs[1] >= stair.Reorgs[3] && stair.Reorgs[3] >= stair.Reorgs[6]) {
		t.Errorf("reorganization counts should fall with p: %v", stair.Reorgs)
	}
	// The eager setting finishes with at least as many nodes as the others.
	last := stair.Rows[len(stair.Rows)-1]
	if last.Nodes[6] < last.Nodes[1] {
		t.Errorf("p=6 should end at least as large as p=1: %v", last.Nodes)
	}
	var buf bytes.Buffer
	RenderFigure8(&buf, stair)
	if buf.Len() == 0 {
		t.Error("render produced nothing")
	}
}

func TestTable2TunerSelections(t *testing.T) {
	rows, bestAIS, bestMODIS, err := Table2(stairConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table 2 has %d rows, want 4", len(rows))
	}
	// The paper's headline: AIS (seasonal swings) is best predicted by
	// the most recent sample; MODIS (steady growth) by a longer window.
	if bestAIS != 1 {
		t.Errorf("AIS best s = %d, want 1", bestAIS)
	}
	if bestMODIS < 2 {
		t.Errorf("MODIS best s = %d, want >= 2", bestMODIS)
	}
	for _, r := range rows {
		if len(r.Errors) != 4 {
			t.Fatalf("row %s/%s has %d errors", r.Workload, r.Phase, len(r.Errors))
		}
		for _, e := range r.Errors {
			if e < 0 || math.IsNaN(e) {
				t.Errorf("row %s/%s has invalid error %v", r.Workload, r.Phase, e)
			}
		}
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows, bestAIS, bestMODIS)
	if buf.Len() == 0 {
		t.Error("render produced nothing")
	}
}

func TestTable3CostModel(t *testing.T) {
	stair := quickStair(t)
	rows, err := Table3(stairConfig(), stair)
	if err != nil {
		t.Fatal(err)
	}
	byP := map[int]Table3Row{}
	for _, r := range rows {
		byP[r.P] = r
		if r.Estimate <= 0 || r.Measured <= 0 {
			t.Errorf("p=%d: non-positive costs %+v", r.P, r)
		}
	}
	// The analytical model identifies p=3 as the cheapest set point.
	if !(byP[3].Estimate < byP[1].Estimate && byP[3].Estimate < byP[6].Estimate) {
		t.Errorf("estimate should pick p=3: %+v", rows)
	}
	// Measured: the eager setting is clearly the most expensive; lazy
	// and moderate are within a few percent of each other (the paper
	// measures 13 vs 12 node-hours).
	if !(byP[6].Measured > byP[1].Measured && byP[6].Measured > byP[3].Measured) {
		t.Errorf("measured should penalise p=6: %+v", rows)
	}
	if byP[3].Measured > 1.15*byP[1].Measured {
		t.Errorf("measured p=3 (%.2f) should be within 15%% of p=1 (%.2f)", byP[3].Measured, byP[1].Measured)
	}
	// Estimates correlate with measurements: same worst case.
	var buf bytes.Buffer
	RenderTable3(&buf, rows)
	if buf.Len() == 0 {
		t.Error("render produced nothing")
	}
}

func TestQuickConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MODISCycles != 14 || cfg.AISCycles != 12 || cfg.CapacityFraction != 7 {
		t.Errorf("full defaults wrong: %+v", cfg)
	}
	q := Quick()
	if q.MODISCycles >= cfg.MODISCycles {
		t.Error("Quick should be smaller than full")
	}
}
