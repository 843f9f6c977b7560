package stats

import (
	"sort"
)

// ECDF is the empirical cumulative distribution of a sample. It backs the
// "P[X <= x]" (cumulative, center) and "P[X >= x]" (CCDF, right) panels of
// the paper's marginal-distribution figures.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts xs. An empty sample is allowed but evaluates to
// a zero distribution.
func NewECDF(xs []float64) *ECDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// NewECDFHistogram builds the ECDF of a sample of non-negative integers
// given by its histogram: hist[v] is the number of samples equal to v.
// It equals NewECDF of the expanded sample; a counting sort lays the
// values out in order, so no comparison sort runs.
func NewECDFHistogram(hist []int) *ECDF {
	n := 0
	for _, c := range hist {
		n += c
	}
	sorted := make([]float64, 0, n)
	for v, c := range hist {
		for range c {
			sorted = append(sorted, float64(v))
		}
	}
	return &ECDF{sorted: sorted}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// CDF returns P[X <= x].
func (e *ECDF) CDF(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Number of samples <= x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// CCDF returns P[X >= x] — the inclusive complementary form the paper
// plots (e.g. "P[l(i) >= x]" in Figure 19).
func (e *ECDF) CCDF(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, x) // first index with value >= x
	return float64(len(e.sorted)-i) / float64(len(e.sorted))
}

// Quantile returns the p-quantile (p in [0,1]) by order statistic.
func (e *ECDF) Quantile(p float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return e.sorted[0]
	}
	if p >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	return quantileSorted(e.sorted, p)
}

// Values returns the sorted underlying sample. The slice is shared; treat
// it as read-only.
func (e *ECDF) Values() []float64 { return e.sorted }

// Point is one (X, Y) pair of a plottable series.
type Point struct {
	X, Y float64
}

// CDFPoints returns the step points (x_i, i/n) at each distinct sample
// value, suitable for plotting the cumulative panel.
func (e *ECDF) CDFPoints() []Point {
	return e.points(func(i int) float64 {
		return float64(i+1) / float64(len(e.sorted))
	})
}

// CCDFPoints returns the points (x_i, P[X >= x_i]) at each distinct sample
// value, suitable for plotting the complementary panel on log axes.
func (e *ECDF) CCDFPoints() []Point {
	n := float64(len(e.sorted))
	out := make([]Point, 0, 64)
	for i := 0; i < len(e.sorted); i++ {
		if i > 0 && e.sorted[i] == e.sorted[i-1] {
			continue
		}
		out = append(out, Point{X: e.sorted[i], Y: (n - float64(i)) / n})
	}
	return out
}

// points emits one point per distinct value, with Y computed at the last
// occurrence index of the value.
func (e *ECDF) points(y func(lastIdx int) float64) []Point {
	out := make([]Point, 0, 64)
	for i := 0; i < len(e.sorted); i++ {
		if i+1 < len(e.sorted) && e.sorted[i+1] == e.sorted[i] {
			continue
		}
		out = append(out, Point{X: e.sorted[i], Y: y(i)})
	}
	return out
}
