package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/analyze"
	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/sessions"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wmslog"
)

// lsmcal's defaults, which the benchmark runs it with.
const (
	calTimeout = 1500 // -timeout, seconds
	calSeed    = 1    // -seed, drives only the Poisson replica
)

// setupRepeats is how many times set-up runs; setup_s is the median.
const setupRepeats = 3

// spoiledLine is appended to every daily log: a line the tolerant parser
// must skip as malformed.
const spoiledLine = "2002-01-06 00:00:00 spoiled-line\n"

var parsedRE = regexp.MustCompile(`parsed (\d+) entries from (\d+) files \((\d+) malformed lines skipped\)`)

// runCharacterize measures `lsmcal -logs L -days D -o spec.json` over
// the text logs of a generate realization at -scale charScale. Set-up
// writes those logs and spoils one line per file.
func runCharacterize(cfg config) (*result, error) {
	res := &result{}
	logs := filepath.Join(cfg.work, "logs")
	var setups []time.Duration
	var gen genSummary
	var spoiled int
	ref := refTask()
	for i := 0; i < setupRepeats; i++ {
		if err := os.RemoveAll(logs); err != nil {
			return nil, err
		}
		t0 := time.Now()
		c, err := runChild(cfg.bin, "lsmgen", genArgs(cfg, cfg.charScale, logs)...)
		if err != nil {
			return nil, err
		}
		if spoiled, err = spoilLogs(logs); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		if gen, err = parseGenSummary(c.stdout); err != nil {
			return nil, err
		}
	}

	spec := filepath.Join(cfg.work, "spec.json")
	want, haveWant := specDigests[runKey{cfg.charScale, cfg.days, cfg.seed}]
	var walls, cpus []time.Duration
	var rssMB []float64
	var runs []*tracer
	var layers charLayers
	var checkErr error
	rep := func() error {
		res.Attempted++
		c, err := runChild(cfg.bin, "lsmcal", "-logs", logs, "-days", strconv.Itoa(cfg.days), "-o", spec)
		if err != nil {
			return err
		}
		m := parsedRE.FindStringSubmatch(c.stdout)
		if m == nil {
			return fmt.Errorf("lsmcal output not understood:\n%s", c.stdout)
		}
		parsed, _ := strconv.Atoi(m[1])
		malformed, _ := strconv.Atoi(m[3])
		got, err := specDigest(spec)
		if err != nil {
			return err
		}
		if !haveWant {
			want, haveWant = got, true // later runs must agree with the first
		}
		walls, cpus = append(walls, c.wall), append(cpus, c.cpu)
		rssMB = append(rssMB, c.maxRSS)
		check := firstErr(checkParseCounts(parsed, malformed, gen.transfers, gen.injected, spoiled),
			checkDigest("fitted spec", got, want))
		if cfg.trace {
			tracedSpec := filepath.Join(cfg.work, "traced-spec.json")
			t, l, err := tracedCharacterize(cfg, logs, tracedSpec, len(runs) == 0)
			if err != nil {
				return err
			}
			d, err := specDigest(tracedSpec)
			if err != nil {
				return err
			}
			check = firstErr(check, checkDigest("traced fitted spec", d, want),
				checkParseCounts(l.entries, l.malformed, gen.transfers, gen.injected, spoiled))
			if l.differs {
				check = firstErr(check, checkf("traced characterization differs from core.Characterize"))
			}
			if u := t.unattributed(); u < 0 || u > unattributedTolerance {
				check = firstErr(check, checkf("layer self times leave %.2f%% of the traced wall time unattributed, tolerance %.0f%%", 100*u, 100*unattributedTolerance))
			}
			runs, layers = append(runs, t), l
		}
		if check != nil {
			res.Failed++
			checkErr = check
		}
		return nil
	}
	if err := until(cfg.budget(), rep); err != nil {
		return nil, err
	}
	printEnv("shards=0 lanes=0")
	wall := median(seconds(walls))
	fmt.Printf("characterize: scale %g, %d days, seed %d: %d transfers, %d spoiled lines, spec digest %s; %d runs, median wall %.4g s, %.4g transfers/s; reference task %.4g s\n",
		cfg.charScale, cfg.days, cfg.seed, gen.transfers, spoiled, want, len(walls), wall, float64(gen.transfers)/wall, ref)
	if !cfg.trace {
		res.set("setup_s", scaled(median(seconds(setups)), charTransfers, gen.transfers), "s")
		res.set("wall_s", scaled(wall, charTransfers, gen.transfers), "s")
		res.set("peak_rss_mb", median(rssMB), "MB")
		return res, checkErr
	}
	zeroLayers(res)
	layerMedians(res, runs, []layer{
		{"wmslog.read_s", "wmslog.ReadFiles"},
		{"trace.from_entries_s", "trace.FromEntries"},
		{"trace.sanitize_s", "trace.Trace.Sanitize"},
		{"trace.basic_s", "core.BasicStats"},
		{"sessions.sessionize_s", "sessions.Sessionize"},
		{"sessions.sweep_s", "sessions.SweepTimeout"},
		{"analyze.client_s", "analyze.AnalyzeClientLayer"},
		{"analyze.session_s", "analyze.AnalyzeSessionLayer"},
		{"analyze.transfer_s", "analyze.AnalyzeTransferLayer"},
		{"analyze.diversity_s", "analyze.AnalyzeDiversity"},
		{"stats.bins_s", "stats.BinCounts"},
		{"core.replica_s", "core.BuildPoissonReplica"},
		{"calibrate.fit_s", "calibrate.Fit"},
	})
	res.set("wmslog.entries", float64(layers.entries), "count")
	res.set("wmslog.malformed", float64(layers.malformed), "count")
	res.set("calibrate.notes", float64(layers.notes), "count")
	setTraced(res, runs, cpus, wall, ref)
	return res, firstErr(checkErr, writeSpans(filepath.Join(cfg.work, "spans.json"), runs))
}

// unattributedTolerance bounds the share of a traced characterize run
// that the layer spans may leave uncovered: only glue between the calls
// (file listing, result assembly, writing the spec) runs outside them.
const unattributedTolerance = 0.02

// spoilLogs appends spoiledLine to every daily log and returns how many
// lines it spoiled.
func spoilLogs(dir string) (int, error) {
	paths, err := logFiles(dir)
	if err != nil {
		return 0, err
	}
	for _, p := range paths {
		f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			return 0, err
		}
		_, err = f.WriteString(spoiledLine)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
	}
	return len(paths), nil
}

// charLayers is what the traced characterize run counts besides its
// spans.
type charLayers struct {
	entries, malformed, notes int
	// differs is set when the decomposed characterization is not the
	// one core.Characterize returns.
	differs bool
}

// tracedCharacterize runs lsmcal's pipeline in process, breaking
// core.Characterize into the public calls it makes so each layer gets
// its own span. With compare set it then runs core.Characterize itself,
// untimed, and records any difference.
func tracedCharacterize(cfg config, logs, specOut string, compare bool) (*tracer, charLayers, error) {
	var l charLayers
	runtime.GC()
	t := newTracer()
	var clean *trace.Trace
	var char *core.Characterization
	err := t.do("lsmcal", func() error {
		paths, err := wmslog.FindLogs(logs)
		if err != nil {
			return err
		}
		var entries []*wmslog.Entry
		err = t.do("wmslog.ReadFiles", func() error {
			var st wmslog.ParseStats
			entries, st, err = wmslog.ReadFiles(paths, true)
			l.entries, l.malformed = st.Entries, st.Malformed
			return err
		})
		if err != nil {
			return err
		}
		var tr *trace.Trace
		err = t.do("trace.FromEntries", func() (err error) {
			tr, err = trace.FromEntries(entries, wmslog.TraceEpoch, int64(cfg.days)*86400)
			return err
		})
		if err != nil {
			return err
		}
		entries = nil
		t.do("trace.Trace.Sanitize", func() error {
			clean, _ = tr.Sanitize()
			return nil
		})
		if char, err = decomposedCharacterize(t, clean); err != nil {
			return err
		}
		return t.do("calibrate.Fit", func() error {
			model, rep := calibrate.Fit(char)
			l.notes = len(rep.Notes)
			return model.Save(specOut)
		})
	})
	t.finish()
	if err != nil || !compare {
		return t, l, err
	}
	want, err := core.Characterize(clean, calTimeout, nil, calSeed)
	if err != nil {
		return nil, l, err
	}
	// The per-client count slices are filled in map iteration order, so
	// only their contents are comparable between two calls.
	for _, c := range []*core.Characterization{char, want} {
		sort.Ints(c.Client.TransfersPerClient)
		sort.Ints(c.Client.SessionsPerClient)
	}
	l.differs = !reflect.DeepEqual(char, want)
	return t, l, nil
}

// decomposedCharacterize is core.Characterize spelled out call by call,
// each call in its own span.
func decomposedCharacterize(t *tracer, tr *trace.Trace) (*core.Characterization, error) {
	char := &core.Characterization{Horizon: tr.Horizon, Timeout: calTimeout}
	var set *sessions.Set
	steps := []struct {
		span string
		run  func() error
	}{
		{"sessions.Sessionize", func() (err error) { set, err = sessions.Sessionize(tr, calTimeout); return err }},
		{"analyze.AnalyzeClientLayer", func() (err error) { char.Client, err = analyze.AnalyzeClientLayer(set); return err }},
		{"analyze.AnalyzeSessionLayer", func() (err error) { char.Session, err = analyze.AnalyzeSessionLayer(set); return err }},
		{"analyze.AnalyzeTransferLayer", func() (err error) { char.Transfer, err = analyze.AnalyzeTransferLayer(tr); return err }},
		{"analyze.AnalyzeDiversity", func() (err error) { char.Divers, err = analyze.AnalyzeDiversity(tr); return err }},
		{"sessions.SweepTimeout", func() (err error) { char.Sweep, err = sessions.SweepTimeout(tr, core.DefaultTimeoutSweep); return err }},
		{"core.BasicStats", func() error {
			char.Basic = core.BasicStats{
				Days:       int(tr.Horizon / 86400),
				Objects:    tr.DistinctObjects(),
				ASes:       tr.DistinctAS(),
				IPs:        tr.DistinctIPs(),
				Users:      tr.NumClients(),
				Sessions:   set.Count(),
				Transfers:  tr.NumTransfers(),
				TotalBytes: tr.TotalBytes(),
			}
			return nil
		}},
		{"stats.BinCounts", func() error {
			if bins, err := stats.BinCounts(set.ArrivalTimes(), tr.Horizon, analyze.TemporalBin); err == nil {
				char.ArrivalBins = bins
			}
			return nil
		}},
		{"core.BuildPoissonReplica", func() error {
			char.Poisson = core.BuildPoissonReplica(set, tr.Horizon, char.Client.Interarrivals, calSeed)
			return nil
		}},
	}
	for _, s := range steps {
		if err := t.do(s.span, s.run); err != nil {
			return nil, fmt.Errorf("%s: %w", s.span, err)
		}
	}
	return char, nil
}
