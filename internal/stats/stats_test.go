package stats

import (
	"math"
	"math/rand"
	"testing"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Mean(xs), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", Mean(xs))
	}
	if !almost(StdDev(xs), 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", StdDev(xs))
	}
	if StdDev([]float64{3}) != 0 {
		t.Error("StdDev of one value should be 0")
	}
}

func TestRSD(t *testing.T) {
	if RSD([]float64{0, 0}) != 0 {
		t.Error("RSD with zero mean should be 0")
	}
	if !almost(RSD([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 0.4, 1e-12) {
		t.Errorf("RSD = %v, want 0.4", RSD([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
	if RSD([]float64{5, 5, 5, 5}) != 0 {
		t.Error("uniform load should have RSD 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got, _ := Quantile([]float64{10}, 0.5); got != 10 {
		t.Errorf("single-element quantile = %v", got)
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty quantile should fail")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("q>1 should fail")
	}
	if _, err := Quantile(xs, math.NaN()); err == nil {
		t.Error("NaN q should fail")
	}
	// Quantile must not reorder its input.
	orig := []float64{3, 1, 2}
	if _, err := Quantile(orig, 0.5); err != nil {
		t.Fatal(err)
	}
	if orig[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	got, err := Quantile([]float64{0, 10}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 2.5, 1e-12) {
		t.Errorf("interpolated quantile = %v, want 2.5", got)
	}
}

func TestZipfValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewZipf(rng, 0, 1); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := NewZipf(rng, 10, 0); err == nil {
		t.Error("s=0 should fail")
	}
	if _, err := NewZipf(rng, 10, math.NaN()); err == nil {
		t.Error("NaN s should fail")
	}
}

func TestZipfInRangeAndSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	z := MustZipf(rng, 100, 1.2)
	counts := make([]int, 100)
	const draws = 50000
	for i := 0; i < draws; i++ {
		r := z.Next()
		if r < 0 || r >= 100 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	if counts[0] <= counts[50] {
		t.Error("rank 0 should dominate rank 50 under Zipf")
	}
	// Top 5 ranks should hold far more than 5% of mass.
	top := 0
	for i := 0; i < 5; i++ {
		top += counts[i]
	}
	if float64(top)/draws < 0.30 {
		t.Errorf("top 5%% of ranks hold %.2f of mass; expected heavy skew", float64(top)/draws)
	}
}

func TestZipfDeterministicForSeed(t *testing.T) {
	a := MustZipf(rand.New(rand.NewSource(3)), 50, 1.1)
	b := MustZipf(rand.New(rand.NewSource(3)), 50, 1.1)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("Zipf not deterministic for equal seeds")
		}
	}
}
