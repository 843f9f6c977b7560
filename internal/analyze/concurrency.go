// Package analyze implements the paper's three-layer characterization
// pipeline (Sections 3–5): client-layer, session-layer and transfer-layer
// analyses over a sanitized trace, each producing the statistics and
// distribution fits behind Figures 2–20 and Tables 1–2.
package analyze

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// ErrBadInput reports empty or inconsistent analysis input.
var ErrBadInput = errors.New("analyze: bad input")

// Interval is a half-open activity interval [Start, End) in trace seconds.
type Interval struct {
	Start, End int64
}

// ConcurrencyReport characterizes a level-of-concurrency process c(t):
// the number of simultaneously active intervals at each second. It backs
// Figures 3/4 (active clients) and 15/16 (active transfers).
type ConcurrencyReport struct {
	// Marginal is the distribution of c(t) sampled each second over the
	// trace (Figures 3 and 15).
	Marginal *stats.ECDF
	// Binned is the 15-minute mean of c(t) over the whole trace
	// (Figures 4 and 16, left).
	Binned stats.BinnedSeries
	// WeekFold and DayFold are the revolving weekly and daily views
	// (Figures 4 and 16, center and right).
	WeekFold stats.BinnedSeries
	DayFold  stats.BinnedSeries
	// ACF is the autocorrelation of the minute-binned series at lags
	// 0..MaxACFLagMinutes (Figure 8).
	ACF []float64
	// Peak is the maximum concurrency observed.
	Peak int
}

const (
	// TemporalBin is the paper's 15-minute bin (900 s) for temporal plots.
	TemporalBin int64 = 900
	// ACFBin is the 1-minute bin used for the Figure 8 autocorrelation.
	ACFBin int64 = 60
	// MaxACFLagMinutes covers three daily peaks (Figure 8 plots to ~4000).
	MaxACFLagMinutes = 4000
)

// Concurrency computes the full concurrency report for a set of activity
// intervals over [0, horizon). Intervals outside the horizon are clipped.
func Concurrency(intervals []Interval, horizon int64) (*ConcurrencyReport, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("%w: horizon %d", ErrBadInput, horizon)
	}
	if len(intervals) == 0 {
		return nil, fmt.Errorf("%w: no intervals", ErrBadInput)
	}
	perSecond := concurrencyPerSecond(intervals, horizon)

	// Marginal distribution of c(t), from a histogram of the counts.
	peak := 0
	for _, v := range perSecond {
		peak = max(peak, int(v))
	}
	hist := make([]int, peak+1)
	for _, v := range perSecond {
		hist[v]++
	}

	binned, err := binMeanSeries(perSecond, TemporalBin)
	if err != nil {
		return nil, err
	}
	// The weekly view needs at least one full week of data to be
	// meaningful; shorter traces skip it.
	weekFold := stats.BinnedSeries{Width: TemporalBin}
	if horizon >= 7*86400 {
		weekFold, err = binned.FoldModulo(7 * 86400)
		if err != nil {
			weekFold = stats.BinnedSeries{Width: TemporalBin}
		}
	}
	dayFold, err := binned.FoldModulo(86400)
	if err != nil {
		return nil, err
	}

	acfSeries, err := binMeanSeries(perSecond, ACFBin)
	if err != nil {
		return nil, err
	}
	maxLag := MaxACFLagMinutes
	if maxLag >= len(acfSeries.Values) {
		maxLag = len(acfSeries.Values) - 1
	}
	var acf []float64
	if maxLag >= 1 {
		acf, err = stats.AutocorrelationFunction(acfSeries.Values, maxLag)
		if err != nil {
			acf = nil // constant series: ACF undefined, report none
		}
	}

	return &ConcurrencyReport{
		Marginal: stats.NewECDFHistogram(hist),
		Binned:   binned,
		WeekFold: weekFold,
		DayFold:  dayFold,
		ACF:      acf,
		Peak:     peak,
	}, nil
}

// concurrencyPerSecond sweeps the intervals with a difference array.
func concurrencyPerSecond(intervals []Interval, horizon int64) []int32 {
	diff := make([]int32, horizon+1)
	for _, iv := range intervals {
		lo, hi := iv.Start, iv.End
		if hi <= lo {
			hi = lo + 1 // zero-length activity still occupies its second
		}
		if lo < 0 {
			lo = 0
		}
		if hi > horizon {
			hi = horizon
		}
		if lo >= horizon || hi <= 0 || hi <= lo {
			continue
		}
		diff[lo]++
		diff[hi]--
	}
	out := make([]int32, horizon)
	var run int32
	for s := int64(0); s < horizon; s++ {
		run += diff[s]
		out[s] = run
	}
	return out
}

// binMeanSeries averages a per-second series into fixed-width bins.
func binMeanSeries(perSecond []int32, width int64) (stats.BinnedSeries, error) {
	if width <= 0 {
		return stats.BinnedSeries{}, fmt.Errorf("%w: bin width %d", ErrBadInput, width)
	}
	horizon := int64(len(perSecond))
	n := int((horizon + width - 1) / width)
	values := make([]float64, n)
	for b := 0; b < n; b++ {
		lo := int64(b) * width
		hi := lo + width
		if hi > horizon {
			hi = horizon
		}
		var sum float64
		for s := lo; s < hi; s++ {
			sum += float64(perSecond[s])
		}
		values[b] = sum / float64(hi-lo)
	}
	return stats.BinnedSeries{Width: width, Values: values}, nil
}

// TransferIntervals extracts activity intervals from transfers.
func TransferIntervals(starts, ends []int64) ([]Interval, error) {
	if len(starts) != len(ends) {
		return nil, fmt.Errorf("%w: %d starts vs %d ends", ErrBadInput, len(starts), len(ends))
	}
	out := make([]Interval, len(starts))
	for i := range starts {
		out[i] = Interval{Start: starts[i], End: ends[i]}
	}
	return out, nil
}
