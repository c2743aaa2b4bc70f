// Package stats provides the small statistics toolkit the elasticity layer
// leans on: relative standard deviation (the paper's load-balance metric),
// quantiles, online accumulators, and a bounded Zipf sampler used to
// synthesise the AIS workload's port-concentrated storage skew.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 when fewer
// than two values are present.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// RSD returns the relative standard deviation (stddev ÷ mean) of xs — the
// paper's measure of storage-balance evenness (Section 6.2.1). A lower
// value indicates a more balanced partitioning. It returns 0 when the mean
// is zero.
func RSD(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. It returns an error for empty input
// or out-of-range q.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s — the power-law distribution the paper invokes (Zipf's law,
// [33]) to describe ship congregation around ports. Unlike math/rand.Zipf
// it supports any s > 0 (including s ≤ 1) over a bounded domain.
type Zipf struct {
	rng *rand.Rand
	cdf []float64
}

// NewZipf builds a bounded Zipf sampler over n ranks with exponent s.
func NewZipf(rng *rand.Rand, n int, s float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("stats: Zipf needs n >= 1, got %d", n)
	}
	if s <= 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("stats: Zipf exponent must be positive, got %v", s)
	}
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{rng: rng, cdf: cdf}, nil
}

// MustZipf is NewZipf that panics on error.
func MustZipf(rng *rand.Rand, n int, s float64) *Zipf {
	z, err := NewZipf(rng, n, s)
	if err != nil {
		panic(err)
	}
	return z
}

// Next returns the next sampled rank in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}
