// Command lsmcal closes the digital-twin calibration loop of Veloso et
// al. (IMC 2002): characterize a directory of WMS-style logs, fit the
// Table 2 parameter set of the extended GISMO generator to the
// characterization, optionally regenerate a synthetic twin workload
// from the fitted model, and validate the twin against its source with
// per-layer two-sample KS tests.
//
// Usage:
//
//	lsmcal -logs logs/ [-days 7] [-timeout 1500] [-seed 1]
//	       [-o model.json] [-twin] [-strict]
//
// Both text and framed binary daily logs are read (the parser
// auto-detects the format per file). -o writes the fitted model spec
// JSON, which lsmgen loads directly via -model. -twin runs the full
// loop — generate from the fitted spec, serve, re-characterize,
// validate — and prints the source-versus-twin report; with -strict the
// exit code is nonzero when any KS test rejects. -cpuprofile,
// -memprofile and -trace capture pprof and execution-trace artifacts of
// the run.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/wmslog"
)

func main() {
	var (
		logs    = flag.String("logs", "", "directory of wms-*.log files, text or binary (required)")
		days    = flag.Int("days", 7, "trace horizon in days")
		timeout = flag.Int64("timeout", 1500, "session timeout T_o in seconds")
		seed    = flag.Int64("seed", 1, "seed for the twin regeneration and the Poisson replica")
		out     = flag.String("o", "", "path to write the fitted model spec JSON")
		twin    = flag.Bool("twin", false, "regenerate a synthetic twin and validate it against the source")
		strict  = flag.Bool("strict", false, "with -twin: exit nonzero if any KS test rejects")
	)
	var profiles prof.Profiles
	profiles.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *logs == "" {
		fmt.Fprintln(os.Stderr, "lsmcal: -logs is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "lsmcal:", err)
		os.Exit(1)
	}
	code, err := run(*logs, *days, *timeout, *seed, *out, *twin, *strict)
	if perr := profiles.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmcal:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(logDir string, days int, timeout, seed int64, outPath string, twin, strict bool) (int, error) {
	source, err := characterizeLogs(logDir, days, timeout, seed)
	if err != nil {
		return 0, err
	}
	fmt.Printf("source: %d clients, %d sessions, %d transfers over %d day(s)\n",
		source.Basic.Users, source.Basic.Sessions, source.Basic.Transfers, source.Basic.Days)

	model, fitRep := calibrate.Fit(source)
	fmt.Printf("\nfitted model: %d clients, %d objects, base rate %.6g/s, interest alpha %.4f (R2 %.3f), transfers/session alpha %.4f (R2 %.3f)\n",
		model.NumClients, model.NumObjects, model.BaseArrivalRate,
		model.Interest.Alpha, fitRep.InterestR2,
		model.TransfersPerSession.Alpha, fitRep.PerSessionR2)
	fmt.Printf("  gaps lognormal(mu %.4f, sigma %.4f), lengths lognormal(mu %.4f, sigma %.4f), feed preference %.3f\n",
		model.IntraSessionGap.Mu, model.IntraSessionGap.Sigma,
		model.TransferLength.Mu, model.TransferLength.Sigma, model.FeedPreference)
	fmt.Printf("  arrival calibration: %d observed sessions, %.1f expected from the fitted process (%d profile day(s))\n",
		fitRep.SourceSessions, fitRep.ExpectedSessions, fitRep.ProfileDays)
	for _, n := range fitRep.Notes {
		fmt.Printf("  note: %s\n", n)
	}

	if outPath != "" {
		if err := model.Save(outPath); err != nil {
			return 0, err
		}
		fmt.Printf("\nmodel spec written to %s\n", outPath)
	}
	if !twin {
		return 0, nil
	}

	fmt.Printf("\nregenerating twin (seed %d)...\n", seed)
	twinChar, err := calibrate.Twin(model, seed, timeout)
	if err != nil {
		return 0, err
	}
	rep := calibrate.Validate(source, twinChar)
	fmt.Println()
	if err := rep.Render(os.Stdout); err != nil {
		return 0, err
	}
	if rejects := rep.Rejections(); len(rejects) > 0 {
		fmt.Printf("\n%d of %d KS tests reject at alpha %.2g\n", len(rejects), len(rep.Checks), rep.Alpha)
		if strict {
			return 1, nil
		}
	} else {
		fmt.Printf("\nall KS tests pass at alpha %.2g\n", rep.Alpha)
	}
	return 0, nil
}

// characterizeLogs runs the logs → trace → characterization front half
// shared with lsmchar.
func characterizeLogs(logDir string, days int, timeout, seed int64) (*core.Characterization, error) {
	paths, err := wmslog.FindLogs(logDir)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no wms-*.log or wms-*.log.gz files under %s", logDir)
	}
	entries, st, err := wmslog.ReadFiles(paths, true)
	if err != nil {
		return nil, err
	}
	fmt.Printf("parsed %d entries from %d files (%d malformed lines skipped)\n",
		st.Entries, len(paths), st.Malformed)

	horizon := int64(days) * 86400
	tr, err := trace.FromEntries(entries, wmslog.TraceEpoch, horizon)
	if err != nil {
		return nil, err
	}
	clean, sanReport := tr.Sanitize()
	fmt.Println(sanReport)
	return core.Characterize(clean, timeout, nil, seed)
}
