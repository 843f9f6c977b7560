package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestECDFBasic(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2, 2, 5})
	if e.N() != 5 {
		t.Fatalf("N = %d", e.N())
	}
	cases := []struct{ x, cdf, ccdf float64 }{
		{0, 0, 1},
		{1, 0.2, 1},
		{1.5, 0.2, 0.8},
		{2, 0.6, 0.8},
		{3, 0.8, 0.4},
		{5, 1, 0.2},
		{6, 1, 0},
	}
	for _, c := range cases {
		if got := e.CDF(c.x); math.Abs(got-c.cdf) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.cdf)
		}
		if got := e.CCDF(c.x); math.Abs(got-c.ccdf) > 1e-12 {
			t.Errorf("CCDF(%v) = %v, want %v", c.x, got, c.ccdf)
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.CDF(1) != 0 || e.CCDF(1) != 0 || e.Quantile(0.5) != 0 || e.N() != 0 {
		t.Error("empty ECDF should evaluate to zeros")
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40})
	if got := e.Quantile(0); got != 10 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := e.Quantile(1); got != 40 {
		t.Errorf("Quantile(1) = %v", got)
	}
	if got := e.Quantile(0.5); math.Abs(got-25) > 1e-12 {
		t.Errorf("Quantile(0.5) = %v, want 25", got)
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{1, 1, 2, 3})
	cdf := e.CDFPoints()
	wantCDF := []Point{{1, 0.5}, {2, 0.75}, {3, 1}}
	if len(cdf) != len(wantCDF) {
		t.Fatalf("CDFPoints = %v", cdf)
	}
	for i := range wantCDF {
		if cdf[i] != wantCDF[i] {
			t.Errorf("CDFPoints[%d] = %v, want %v", i, cdf[i], wantCDF[i])
		}
	}
	ccdf := e.CCDFPoints()
	wantCCDF := []Point{{1, 1}, {2, 0.5}, {3, 0.25}}
	if len(ccdf) != len(wantCCDF) {
		t.Fatalf("CCDFPoints = %v", ccdf)
	}
	for i := range wantCCDF {
		if ccdf[i] != wantCCDF[i] {
			t.Errorf("CCDFPoints[%d] = %v, want %v", i, ccdf[i], wantCCDF[i])
		}
	}
}

// Property: CDF(x) + exclusive-CCDF(x) == 1, where exclusive CCDF is
// P[X > x] = 1 - CDF(x); and the inclusive CCDF we expose differs from it
// only at sample points.
func TestECDFComplementProperty(t *testing.T) {
	f := func(raw []float64, probe float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			xs[i] = math.Mod(v, 1000)
		}
		if math.IsNaN(probe) || math.IsInf(probe, 0) {
			return true
		}
		p := math.Mod(probe, 1000)
		e := NewECDF(xs)
		cdf := e.CDF(p)
		ccdfInclusive := e.CCDF(p)
		// P[X >= p] >= P[X > p] = 1 - P[X <= p].
		return ccdfInclusive >= 1-cdf-1e-12 && cdf >= 0 && cdf <= 1 && ccdfInclusive >= 0 && ccdfInclusive <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAutocorrelationPeriodicSeries(t *testing.T) {
	// A pure daily sine sampled each minute over 7 days must have ACF
	// peaks at lag 1440 and its multiples — the structure of Figure 8.
	const day = 1440
	series := make([]float64, 7*day)
	for i := range series {
		series[i] = math.Sin(2 * math.Pi * float64(i) / day)
	}
	r0, err := Autocorrelation(series, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r0-1) > 1e-12 {
		t.Errorf("ACF(0) = %v, want 1", r0)
	}
	rDay, err := Autocorrelation(series, day)
	if err != nil {
		t.Fatal(err)
	}
	if rDay < 0.8 {
		t.Errorf("ACF(1440) = %v, want strong positive", rDay)
	}
	rHalf, err := Autocorrelation(series, day/2)
	if err != nil {
		t.Fatal(err)
	}
	if rHalf > -0.5 {
		t.Errorf("ACF(720) = %v, want strong negative", rHalf)
	}
}

func TestAutocorrelationErrors(t *testing.T) {
	if _, err := Autocorrelation(nil, 0); err == nil {
		t.Error("empty: want error")
	}
	if _, err := Autocorrelation([]float64{1, 2}, -1); err == nil {
		t.Error("negative lag: want error")
	}
	if _, err := Autocorrelation([]float64{1, 2}, 2); err == nil {
		t.Error("lag >= len: want error")
	}
	if _, err := Autocorrelation([]float64{3, 3, 3}, 1); err == nil {
		t.Error("constant series: want error")
	}
}

func TestAutocorrelationFunction(t *testing.T) {
	series := []float64{1, 2, 1, 2, 1, 2, 1, 2}
	acf, err := AutocorrelationFunction(series, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(acf) != 3 {
		t.Fatalf("len = %d", len(acf))
	}
	if math.Abs(acf[0]-1) > 1e-12 {
		t.Errorf("acf[0] = %v", acf[0])
	}
	if acf[1] >= 0 {
		t.Errorf("acf[1] = %v, want negative for alternating series", acf[1])
	}
	if acf[2] <= 0 {
		t.Errorf("acf[2] = %v, want positive for period-2 series", acf[2])
	}
	if _, err := AutocorrelationFunction(series, 99); err == nil {
		t.Error("maxLag too large: want error")
	}
	if _, err := AutocorrelationFunction(series, -1); err == nil {
		t.Error("negative maxLag: want error")
	}
}

func TestLocalMaxima(t *testing.T) {
	series := []float64{0, 1, 0, 2, 0, 3, 0}
	got := LocalMaxima(series, 0.5)
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("maxima = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("maxima = %v, want %v", got, want)
		}
	}
	if got := LocalMaxima(series, 2.5); len(got) != 1 || got[0] != 5 {
		t.Errorf("thresholded maxima = %v, want [5]", got)
	}
}

// AutocorrelationFunction must equal per-lag Autocorrelation bit for bit
// at series lengths and lags on both sides of the lag-block width, where
// the blocked sweep hands over to its tail and remainder loops.
func TestAutocorrelationFunctionBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{2, 3, acfBlock - 1, acfBlock, acfBlock + 1, 2*acfBlock - 1, 2 * acfBlock, 2*acfBlock + 1, 5*acfBlock + 3, 200} {
		series := make([]float64, n)
		for i := range series {
			// Mix fractional noise with integer-valued levels, as the
			// minute-binned c(t) means are.
			series[i] = float64(rng.Intn(50)) + rng.Float64()*float64(i%3)
		}
		series[0]++ // never constant
		for _, maxLag := range []int{0, 1, acfBlock - 1, acfBlock, acfBlock + 1, 2*acfBlock + 3, n - 2, n - 1} {
			if maxLag < 0 || maxLag >= n {
				continue
			}
			acf, err := AutocorrelationFunction(series, maxLag)
			if err != nil {
				t.Fatal(err)
			}
			if len(acf) != maxLag+1 {
				t.Fatalf("n=%d maxLag=%d: len %d", n, maxLag, len(acf))
			}
			for l, got := range acf {
				want, err := Autocorrelation(series, l)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d maxLag=%d lag %d: %v (%#x), per-lag %v (%#x)",
						n, maxLag, l, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestAutocorrelationFunctionErrors(t *testing.T) {
	if _, err := AutocorrelationFunction([]float64{3, 3, 3}, 1); !errors.Is(err, ErrBadArgument) {
		t.Errorf("constant series: err = %v, want ErrBadArgument", err)
	}
	if _, err := AutocorrelationFunction([]float64{7}, 0); !errors.Is(err, ErrBadArgument) {
		t.Errorf("single sample: err = %v, want ErrBadArgument", err)
	}
	if _, err := AutocorrelationFunction(nil, 0); !errors.Is(err, ErrBadArgument) {
		t.Errorf("empty series: err = %v, want ErrBadArgument", err)
	}
}

func TestNewECDFHistogramMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		hist := make([]int, rng.Intn(40))
		var sample []float64
		for v := range hist {
			if rng.Intn(3) > 0 {
				hist[v] = rng.Intn(30)
			}
			for range hist[v] {
				sample = append(sample, float64(v))
			}
		}
		rng.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
		got, want := NewECDFHistogram(hist).Values(), NewECDF(sample).Values()
		if len(got) != len(want) {
			t.Fatalf("trial %d: N = %d, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: value %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}
