// Package core is the end-to-end reproduction pipeline of Veloso et al.,
// "A Hierarchical Characterization of a Live Streaming Media Workload"
// (IMC 2002).
//
// It wires the substrates together:
//
//	gismo.Generate  -> synthetic request stream (Section 6 model)
//	simulate.Run    -> served transfers + WMS-style logs
//	trace.Sanitize  -> Section 2.4 cleaning
//	sessions        -> Section 2.2 sessionization at T_o
//	analyze         -> Sections 3-5 layer characterizations
//	report          -> figures, tables, paper-vs-measured comparisons
//
// The headline artifact is the round trip: instantiate the generative
// model with the paper's Table 2 parameters, push it through the server
// and the characterization pipeline, and recover the parameters — the
// validation loop the paper itself closes with GISMO.
package core

import (
	"errors"
	"fmt"
	randv2 "math/rand/v2"

	"repro/internal/analyze"
	"repro/internal/dist"
	"repro/internal/gismo"
	"repro/internal/sessions"
	"repro/internal/simulate"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ErrBadConfig reports invalid pipeline configuration.
var ErrBadConfig = errors.New("core: bad config")

// lanePoissonReplica is the seed-derivation lane of the measurement
// side's only random draw — the Figure 6 piecewise-Poisson replica —
// disjoint from the generator's lanes 0–4 and the server's serveLane 5
// (lane 6 keyed the retired client-hash serve partition and stays
// unused), so characterizing a trace with the same seed that generated
// it cannot correlate the replica's synthetic arrivals with the
// trace's own randomness (lsmvet's seedlane analyzer keeps the
// namespace collision-free).
const lanePoissonReplica uint64 = 7

// Config parameterizes a full reproduction run.
type Config struct {
	// Model is the generative model (gismo.Default for paper scale,
	// gismo.Scaled for laptop scale).
	Model gismo.Model
	// Server is the simulator configuration.
	Server simulate.Config
	// SessionTimeout is T_o in seconds (paper: 1,500).
	SessionTimeout int64
	// TimeoutSweep holds the T_o values for the Figure 9 sensitivity
	// curve; nil selects DefaultTimeoutSweep.
	TimeoutSweep []int64
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
}

// DefaultTimeoutSweep spans Figure 9's x-axis (up to 4,000 s).
var DefaultTimeoutSweep = []int64{60, 120, 300, 600, 900, 1200, 1500, 2000, 2500, 3000, 3500, 4000}

// DefaultConfig returns a laptop-scale configuration: the paper's
// distributional parameters over a 7-day trace with a population scaled
// down by the given factor (>= 1).
func DefaultConfig(scale float64, days int, seed int64) (Config, error) {
	m, err := gismo.Scaled(scale, days)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Model:          m,
		Server:         simulate.DefaultConfig(),
		SessionTimeout: sessions.DefaultTimeout,
		Seed:           seed,
	}, nil
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if err := c.Server.Validate(); err != nil {
		return err
	}
	if c.SessionTimeout <= 0 {
		return fmt.Errorf("%w: session timeout %d", ErrBadConfig, c.SessionTimeout)
	}
	return nil
}

// BasicStats is Table 1: the trace's basic statistics.
type BasicStats struct {
	Days       int
	Objects    int
	ASes       int
	IPs        int
	Users      int
	Sessions   int
	Transfers  int
	TotalBytes int64
}

// Characterization bundles every layer analysis of a sanitized trace —
// all the material behind Figures 2–20.
type Characterization struct {
	// Horizon is the trace length in seconds — carried so downstream
	// consumers (the calibrate.Fit parameter recovery) need no second
	// look at the trace.
	Horizon  int64
	Timeout  int64
	Basic    BasicStats
	Client   *analyze.ClientLayer
	Session  *analyze.SessionLayer
	Transfer *analyze.TransferLayer
	Divers   *analyze.Diversity
	Sweep    []sessions.SweepPoint

	// ArrivalBins counts session arrivals per 15-minute bin over the
	// horizon — the binned arrival series behind Figure 4, and the
	// series calibrate.Fit reads the empirical rate profile off.
	ArrivalBins stats.BinnedSeries

	// Poisson is the Figure 6 replica: interarrivals synthesized from a
	// piecewise-stationary Poisson process whose rates are read off the
	// measured diurnal profile, plus the two-sample KS distance to the
	// measured interarrivals.
	Poisson PoissonReplica
}

// PoissonReplica is the Figure 6 experiment.
type PoissonReplica struct {
	// Interarrivals are the synthetic interarrival display values.
	Interarrivals []float64
	// KS is the two-sample KS distance between measured and synthetic
	// interarrival distributions; the paper calls the two "surprisingly
	// similar".
	KS float64
	// Window is the stationarity window used (seconds).
	Window int64
}

// Report is the result of a full generative run.
type Report struct {
	Config   Config
	Sessions int // sessions emitted by the generator
	Sanitize trace.SanitizeReport
	Audit    trace.OverloadAudit
	Peak     int // peak concurrent transfers in the simulator
	Char     *Characterization
}

// Run executes the full pipeline: generate, serve, sanitize, sessionize,
// characterize.
func Run(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w, err := gismo.GenerateSeeded(cfg.Model, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	// The simulator derives all server-model draws from the seed alone
	// (per-event splitmix streams), so Run and RunStreamed serve
	// byte-identical results for equal seeds.
	res, err := simulate.Run(w, cfg.Server, uint64(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	// The in-memory trace from the simulator contains only genuine
	// transfers, but the log path may include injected spanning entries;
	// to exercise the paper's pipeline we go through entries when
	// injection is enabled.
	tr := res.Trace
	if res.Injected > 0 {
		tr, err = trace.FromEntries(res.Entries, cfg.Server.Epoch, cfg.Model.Horizon)
		if err != nil {
			return nil, fmt.Errorf("rebuild from entries: %w", err)
		}
	}
	clean, sanReport := tr.Sanitize()
	char, err := Characterize(clean, cfg.SessionTimeout, cfg.TimeoutSweep, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Report{
		Config:   cfg,
		Sessions: w.SessionCount,
		Sanitize: sanReport,
		Audit:    clean.AuditServerLoad(10),
		Peak:     res.PeakConcurrency,
		Char:     char,
	}, nil
}

// Characterize runs the Sections 3–5 pipeline on an already-sanitized
// trace. seed drives the Figure 6 Poisson replica through a dedicated
// splitmix lane (lanePoissonReplica), so equal (trace, seed) pairs
// characterize identically — the measurement side honors the same
// determinism contract as the generator and the server.
func Characterize(tr *trace.Trace, timeout int64, sweep []int64, seed int64) (*Characterization, error) {
	set, err := sessions.Sessionize(tr, timeout)
	if err != nil {
		return nil, err
	}
	client, err := analyze.AnalyzeClientLayer(set)
	if err != nil {
		return nil, fmt.Errorf("client layer: %w", err)
	}
	session, err := analyze.AnalyzeSessionLayer(set)
	if err != nil {
		return nil, fmt.Errorf("session layer: %w", err)
	}
	transfer, err := analyze.AnalyzeTransferLayer(tr)
	if err != nil {
		return nil, fmt.Errorf("transfer layer: %w", err)
	}
	divers, err := analyze.AnalyzeDiversity(tr)
	if err != nil {
		return nil, fmt.Errorf("diversity: %w", err)
	}
	if sweep == nil {
		sweep = DefaultTimeoutSweep
	}
	sweepPoints, err := sessions.SweepTimeout(tr, sweep)
	if err != nil {
		return nil, fmt.Errorf("timeout sweep: %w", err)
	}

	char := &Characterization{
		Horizon:  tr.Horizon,
		Timeout:  timeout,
		Basic:    basicStats(tr, set),
		Client:   client,
		Session:  session,
		Transfer: transfer,
		Divers:   divers,
		Sweep:    sweepPoints,
	}
	if bins, err := stats.BinCounts(set.ArrivalTimes(), tr.Horizon, analyze.TemporalBin); err == nil {
		char.ArrivalBins = bins
	}
	char.Poisson = BuildPoissonReplica(set, tr.Horizon, client.Interarrivals, seed)
	return char, nil
}

func basicStats(tr *trace.Trace, set *sessions.Set) BasicStats {
	return BasicStats{
		Days:       int(tr.Horizon / 86400),
		Objects:    tr.DistinctObjects(),
		ASes:       tr.DistinctAS(),
		IPs:        tr.DistinctIPs(),
		Users:      tr.NumClients(),
		Sessions:   set.Count(),
		Transfers:  tr.NumTransfers(),
		TotalBytes: tr.TotalBytes(),
	}
}

// BuildPoissonReplica reproduces the Figure 6 experiment: read the mean
// arrival rate per 15-minute slot of the day off the measured session
// arrivals, synthesize a piecewise-stationary Poisson arrival stream over
// the same horizon, and compare interarrival distributions. The
// synthetic draws come from a splitmix generator on the seed's
// dedicated replica lane.
func BuildPoissonReplica(set *sessions.Set, horizon int64, measured []float64, seed int64) PoissonReplica {
	const window = analyze.TemporalBin // 900 s, the paper's 15 minutes
	rng := randv2.New(dist.NewSplitMix64(dist.Mix64(uint64(seed), lanePoissonReplica)))
	arrivals := set.ArrivalTimes()
	counts, err := stats.BinCounts(arrivals, horizon, window)
	if err != nil {
		return PoissonReplica{}
	}
	dayFold, err := counts.FoldModulo(86400)
	if err != nil {
		return PoissonReplica{}
	}
	rateOf := func(t float64) float64 {
		slot := int(int64(t)%86400) / int(window)
		if slot < 0 || slot >= len(dayFold.Values) {
			return 0
		}
		return dayFold.Values[slot] / float64(window)
	}
	pp, err := dist.NewPiecewisePoisson(rateOf, float64(window))
	if err != nil {
		return PoissonReplica{}
	}
	synth := pp.ArrivalsV2(rng, float64(horizon), nil)
	gaps := make([]float64, 0, len(synth))
	for i := 1; i < len(synth); i++ {
		gaps = append(gaps, stats.LogDisplayValue(synth[i]-synth[i-1]))
	}
	rep := PoissonReplica{Interarrivals: gaps, Window: int64(window)}
	if len(gaps) > 0 && len(measured) > 0 {
		disp := analyze.InterarrivalDisplay(measured)
		if ks, err := dist.KolmogorovSmirnov2(disp, gaps); err == nil {
			rep.KS = ks
		}
	}
	return rep
}
