package stats

import "fmt"

// Autocorrelation returns the sample autocorrelation of the series at the
// given lag (in series steps):
//
//	r(l) = Σ (x_t - m)(x_{t+l} - m) / Σ (x_t - m)²
//
// This is the estimator behind Figure 8 (autocorrelation of the number of
// active clients, showing daily peaks at lags that are multiples of 1,440
// minutes).
func Autocorrelation(series []float64, lag int) (float64, error) {
	if lag < 0 {
		return 0, fmt.Errorf("%w: negative lag %d", ErrBadArgument, lag)
	}
	if len(series) == 0 {
		return 0, ErrEmpty
	}
	if lag >= len(series) {
		return 0, fmt.Errorf("%w: lag %d >= series length %d", ErrBadArgument, lag, len(series))
	}
	d, den, err := centered(series)
	if err != nil {
		return 0, err
	}
	return lagSum(d, lag) / den, nil
}

// acfBlock is the number of adjacent lags AutocorrelationFunction
// accumulates in one sweep over the series.
const acfBlock = 8

// AutocorrelationFunction evaluates Autocorrelation at every lag in
// 0..maxLag inclusive, returning a slice indexed by lag.
//
// Every out[l] is bit-identical to Autocorrelation(series, l). Both take
// the centered series d_t = x_t - m and the denominator Σ d_t² from
// centered; here they are computed once instead of once per lag. Each
// sweep over t then feeds acfBlock adjacent lags, one accumulator per
// lag. Lag l still adds d_t·d_{t+l} for t = 0, 1, ..., n-l-1 in that
// order (the sweep's tail finishes each lag's remaining terms in order),
// and floating-point addition is deterministic for a fixed operand
// order. The independent accumulators only let the additions of
// different lags overlap in the pipeline. An FFT would be asymptotically
// cheaper but rounds differently, so it is deliberately not used.
func AutocorrelationFunction(series []float64, maxLag int) ([]float64, error) {
	if maxLag < 0 {
		return nil, fmt.Errorf("%w: negative maxLag %d", ErrBadArgument, maxLag)
	}
	if maxLag >= len(series) {
		return nil, fmt.Errorf("%w: maxLag %d >= series length %d", ErrBadArgument, maxLag, len(series))
	}
	d, den, err := centered(series)
	if err != nil {
		return nil, err
	}
	n := len(d)
	out := make([]float64, maxLag+1)
	l := 0
	for ; l+acfBlock <= maxLag+1; l += acfBlock {
		var s [acfBlock]float64
		// Every lag of the block has a term at t while t+l+acfBlock-1 < n;
		// full >= 1 because l+acfBlock-1 <= maxLag < n.
		full := n - (l + acfBlock - 1)
		for t := 0; t < full; t++ {
			x := d[t]
			w := d[t+l : t+l+acfBlock : t+l+acfBlock]
			s[0] += x * w[0]
			s[1] += x * w[1]
			s[2] += x * w[2]
			s[3] += x * w[3]
			s[4] += x * w[4]
			s[5] += x * w[5]
			s[6] += x * w[6]
			s[7] += x * w[7]
		}
		for j := range s {
			for t := full; t+l+j < n; t++ {
				s[j] += d[t] * d[t+l+j]
			}
			out[l+j] = s[j] / den
		}
	}
	for ; l <= maxLag; l++ {
		out[l] = lagSum(d, l) / den
	}
	return out, nil
}

// lagSum returns Σ d_t·d_{t+lag} over t = 0..len(d)-lag-1, in t order.
func lagSum(d []float64, lag int) float64 {
	var num float64
	for t := 0; t+lag < len(d); t++ {
		num += d[t] * d[t+lag]
	}
	return num
}

// centered returns the series minus its mean and the sum of squared
// deviations, rejecting a constant series (zero denominator).
func centered(series []float64) ([]float64, float64, error) {
	m := Mean(series)
	d := make([]float64, len(series))
	var den float64
	for t, x := range series {
		d[t] = x - m
		den += d[t] * d[t]
	}
	if den == 0 {
		return nil, 0, fmt.Errorf("%w: constant series has undefined autocorrelation", ErrBadArgument)
	}
	return d, den, nil
}

// LocalMaxima returns the indices of strict local maxima of the series that
// exceed the threshold, skipping index 0. It is used to verify the ACF's
// daily periodicity (peaks near multiples of 1,440 minutes).
func LocalMaxima(series []float64, threshold float64) []int {
	var out []int
	for i := 1; i+1 < len(series); i++ {
		if series[i] > threshold && series[i] > series[i-1] && series[i] >= series[i+1] {
			out = append(out, i)
		}
	}
	return out
}
