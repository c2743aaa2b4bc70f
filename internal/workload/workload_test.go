package workload

import (
	"math"
	"sort"
	"testing"

	"repro/internal/array"
	"repro/internal/stats"
)

func newMODIS(t *testing.T) *MODIS {
	t.Helper()
	m, err := NewMODIS(MODISConfig{Cycles: 6, BaseCells: 24})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newAIS(t *testing.T) *AIS {
	t.Helper()
	a, err := NewAIS(AISConfig{Cycles: 6, CellsPerCycle: 3000})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMODISConfigValidation(t *testing.T) {
	if _, err := NewMODIS(MODISConfig{Cycles: -1}); err == nil {
		t.Error("negative cycles should fail")
	}
	if _, err := NewMODIS(MODISConfig{LonStride: -3}); err == nil {
		t.Error("negative stride should fail")
	}
}

func TestAISConfigValidation(t *testing.T) {
	if _, err := NewAIS(AISConfig{Cycles: -1}); err == nil {
		t.Error("negative cycles should fail")
	}
	if _, err := NewAIS(AISConfig{Vessels: -1}); err == nil {
		t.Error("negative vessel count should fail")
	}
}

func TestBatchChunksAreValid(t *testing.T) {
	for _, g := range []Generator{newMODIS(t), newAIS(t)} {
		for cycle := 0; cycle < g.Cycles(); cycle++ {
			batch, err := g.Batch(cycle)
			if err != nil {
				t.Fatalf("%s cycle %d: %v", g.Name(), cycle, err)
			}
			if len(batch) == 0 {
				t.Fatalf("%s cycle %d produced no chunks", g.Name(), cycle)
			}
			for _, ch := range batch {
				if err := ch.Validate(); err != nil {
					t.Fatalf("%s cycle %d chunk %s: %v", g.Name(), cycle, ch.Ref(), err)
				}
				if ch.Coords[0] != int64(cycle) {
					t.Fatalf("%s cycle %d chunk in wrong time slab %v", g.Name(), cycle, ch.Coords)
				}
			}
		}
	}
}

func TestBatchOutOfRange(t *testing.T) {
	for _, g := range []Generator{newMODIS(t), newAIS(t)} {
		if _, err := g.Batch(-1); err == nil {
			t.Errorf("%s Batch(-1) should fail", g.Name())
		}
		if _, err := g.Batch(g.Cycles()); err == nil {
			t.Errorf("%s Batch(Cycles) should fail", g.Name())
		}
	}
}

func TestBatchesDeterministicAndDisjoint(t *testing.T) {
	for _, mk := range []func() Generator{
		func() Generator { m, _ := NewMODIS(MODISConfig{Cycles: 4}); return m },
		func() Generator { a, _ := NewAIS(AISConfig{Cycles: 4}); return a },
	} {
		g1, g2 := mk(), mk()
		seen := map[string]bool{}
		for cycle := 0; cycle < g1.Cycles(); cycle++ {
			b1, err := g1.Batch(cycle)
			if err != nil {
				t.Fatal(err)
			}
			b2, _ := g2.Batch(cycle)
			if len(b1) != len(b2) {
				t.Fatalf("%s cycle %d: %d vs %d chunks across identical generators", g1.Name(), cycle, len(b1), len(b2))
			}
			for i := range b1 {
				if b1[i].Ref().Key() != b2[i].Ref().Key() {
					t.Fatalf("%s cycle %d chunk %d differs", g1.Name(), cycle, i)
				}
				if b1[i].SizeBytes() != b2[i].SizeBytes() {
					t.Fatalf("%s cycle %d chunk %d size differs", g1.Name(), cycle, i)
				}
				key := b1[i].Ref().Key()
				if seen[key] {
					t.Fatalf("%s chunk %s appears in two batches", g1.Name(), key)
				}
				seen[key] = true
			}
		}
		// Re-requesting an earlier batch reproduces it exactly.
		again, err := g1.Batch(0)
		if err != nil {
			t.Fatal(err)
		}
		first, _ := g2.Batch(0)
		if len(again) != len(first) {
			t.Fatalf("%s replay of batch 0 differs", g1.Name())
		}
	}
}

// chunkSkewShare returns the fraction of bytes held by the top `frac`
// share of chunks within one cycle.
func chunkSkewShare(t *testing.T, g Generator, cycle int, frac float64) float64 {
	t.Helper()
	batch, err := g.Batch(cycle)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]float64, len(batch))
	var total float64
	for i, ch := range batch {
		sizes[i] = float64(ch.SizeBytes())
		total += sizes[i]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sizes)))
	k := int(math.Ceil(frac * float64(len(sizes))))
	var top float64
	for i := 0; i < k && i < len(sizes); i++ {
		top += sizes[i]
	}
	return top / total
}

func TestAISSkewMatchesPaper(t *testing.T) {
	// Section 3.2: "Nearly 85% of the data resides in just 5% of the
	// chunks." Allow 0.65–0.95.
	a := newAIS(t)
	share := chunkSkewShare(t, a, 2, 0.05)
	if share < 0.65 || share > 0.95 {
		t.Errorf("AIS top-5%% chunk share = %.2f, want ≈0.85", share)
	}
}

func TestMODISSkewMatchesPaper(t *testing.T) {
	// Section 3.2: "MODIS has only slight skew; the top 5% of chunks
	// constitute only 10% of the data." Allow 5–20%.
	m := newMODIS(t)
	share := chunkSkewShare(t, m, 2, 0.05)
	if share < 0.05 || share > 0.20 {
		t.Errorf("MODIS top-5%% chunk share = %.2f, want ≈0.10", share)
	}
}

func TestMODISMedianFarBelowMeanForAISOnly(t *testing.T) {
	// AIS: median chunk tiny vs mean (924 B vs 100s of MB in the
	// paper); MODIS: median ≈ mean.
	ratio := func(g Generator) float64 {
		batch, err := g.Batch(1)
		if err != nil {
			t.Fatal(err)
		}
		sizes := make([]float64, len(batch))
		for i, ch := range batch {
			sizes[i] = float64(ch.SizeBytes())
		}
		med, err := stats.Quantile(sizes, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return med / stats.Mean(sizes)
	}
	if r := ratio(newAIS(t)); r > 0.25 {
		t.Errorf("AIS median/mean = %.2f, want heavily skewed (< 0.25)", r)
	}
	if r := ratio(newMODIS(t)); r < 0.6 {
		t.Errorf("MODIS median/mean = %.2f, want near uniform (> 0.6)", r)
	}
}

func TestAISSeasonalVariation(t *testing.T) {
	a, err := NewAIS(AISConfig{Cycles: 12})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []float64
	for c := 0; c < 12; c++ {
		batch, err := a.Batch(c)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, float64(BatchBytes(batch)))
	}
	if rsd := stats.RSD(sizes); rsd < 0.10 {
		t.Errorf("AIS cycle sizes RSD = %.3f, want seasonal variation > 0.10", rsd)
	}
	// MODIS inserts are steady by comparison.
	m, err := NewMODIS(MODISConfig{Cycles: 12})
	if err != nil {
		t.Fatal(err)
	}
	var msizes []float64
	for c := 0; c < 12; c++ {
		batch, err := m.Batch(c)
		if err != nil {
			t.Fatal(err)
		}
		msizes = append(msizes, float64(BatchBytes(batch)))
	}
	if stats.RSD(msizes) >= stats.RSD(sizes) {
		t.Errorf("MODIS RSD %.3f should be steadier than AIS %.3f", stats.RSD(msizes), stats.RSD(sizes))
	}
}

func TestReplicatedVesselArray(t *testing.T) {
	a := newAIS(t)
	schema, chunks := a.Replicated()
	if schema == nil || len(chunks) != 1 {
		t.Fatal("AIS must provide a single-chunk vessel array")
	}
	if chunks[0].Len() != 1500 {
		t.Errorf("vessel chunk has %d cells, want 1500", chunks[0].Len())
	}
	if err := chunks[0].Validate(); err != nil {
		t.Fatal(err)
	}
	if s, c := newMODIS(t).Replicated(); s != nil || c != nil {
		t.Error("MODIS must not have a replicated array")
	}
}

func TestTotalBytesMonotone(t *testing.T) {
	for _, g := range []Generator{newMODIS(t), newAIS(t)} {
		curve, total, err := TotalBytes(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(curve) != g.Cycles() {
			t.Fatalf("%s curve length %d, want %d", g.Name(), len(curve), g.Cycles())
		}
		for i := 1; i < len(curve); i++ {
			if curve[i] <= curve[i-1] {
				t.Fatalf("%s demand curve not monotone at %d", g.Name(), i)
			}
		}
		if curve[len(curve)-1] != float64(total) {
			t.Errorf("%s curve end %v != total %d", g.Name(), curve[len(curve)-1], total)
		}
	}
}

func TestGeometryCoversBatches(t *testing.T) {
	for _, g := range []Generator{newMODIS(t), newAIS(t)} {
		geom := g.Geometry()
		for cycle := 0; cycle < g.Cycles(); cycle++ {
			batch, err := g.Batch(cycle)
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range batch {
				for d, v := range ch.Coords {
					if v < 0 || v >= geom.Extents[d] {
						t.Fatalf("%s chunk %v outside geometry %v", g.Name(), ch.Coords, geom.Extents)
					}
				}
			}
		}
	}
}

func TestAISPortsAreHot(t *testing.T) {
	a := newAIS(t)
	batch, err := a.Batch(0)
	if err != nil {
		t.Fatal(err)
	}
	portSet := map[string]bool{}
	for _, p := range a.ports {
		portSet[array.ChunkCoord{0, p[0], p[1]}.Key()] = true
	}
	var portBytes, allBytes int64
	for _, ch := range batch {
		allBytes += ch.SizeBytes()
		if portSet[ch.Coords.Key()] {
			portBytes += ch.SizeBytes()
		}
	}
	if frac := float64(portBytes) / float64(allBytes); frac < 0.6 {
		t.Errorf("port chunks hold %.2f of the data, want > 0.6", frac)
	}
}

func TestMODISBandsShareGridButDiffer(t *testing.T) {
	m := newMODIS(t)
	batch, err := m.Batch(0)
	if err != nil {
		t.Fatal(err)
	}
	arrays := map[string]int{}
	for _, ch := range batch {
		arrays[ch.Schema.Name]++
	}
	if arrays["Band1"] == 0 || arrays["Band2"] == 0 {
		t.Fatalf("batch should cover both bands: %v", arrays)
	}
	if arrays["Band1"] != arrays["Band2"] {
		t.Errorf("bands cover different chunk counts: %v", arrays)
	}
}
