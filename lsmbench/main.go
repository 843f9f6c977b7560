// Command lsmbench is the repository benchmark. It drives the programs
// under test (lsmgen, lsmcal, lsmserve, built from this checkout) on one
// named workload, checks their outputs, and prints one JSON result line:
//
//	lsmbench -workload generate|characterize|live-control -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics of untraced runs of
// the real binaries. With -trace 1 it additionally runs the workload in
// process, timing the calls into each package's public functions from
// the benchmark's own code, and reports the per-layer metrics plus the
// tracing overhead. The programs themselves carry no instrumentation.
//
// run.sh builds everything from source and runs this command; README.md
// names the workloads and maps each metric to its layer.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding lsmgen, lsmcal and lsmserve
	work     string // scratch directory for logs and spans

	// The scales are fixed for the recorded workloads; the self-test
	// lowers them to run at toy size.
	genScale  float64 // generate: lsmgen -scale (1 = paper scale)
	charScale float64 // characterize: -scale of the logs it fits
	days      int
	conns     int // live-control: persistent client connections
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// errCheck marks an output check that failed: the run completed, but
// the program produced a wrong result.
var errCheck = errors.New("output check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// perLayer names every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not run reads 0.
var perLayer = []struct{ name, unit string }{
	{"gismo.setup_s", "s"}, {"gismo.pull_s", "s"}, {"gismo.events", "count"}, {"gismo.sessions", "count"},
	{"simulate.self_s", "s"}, {"simulate.transfers", "count"}, {"simulate.peak_concurrency", "count"}, {"simulate.injected", "count"},
	{"wmslog.write_s", "s"}, {"wmslog.close_s", "s"}, {"wmslog.bytes", "B"},
	{"wmslog.read_s", "s"}, {"wmslog.entries", "count"}, {"wmslog.malformed", "count"},
	{"trace.from_entries_s", "s"}, {"trace.sanitize_s", "s"}, {"trace.basic_s", "s"},
	{"sessions.sessionize_s", "s"}, {"sessions.sweep_s", "s"},
	{"analyze.client_s", "s"}, {"analyze.session_s", "s"}, {"analyze.transfer_s", "s"}, {"analyze.diversity_s", "s"},
	{"stats.bins_s", "s"}, {"core.replica_s", "s"}, {"calibrate.fit_s", "s"}, {"calibrate.notes", "count"},
	{"liveserver.dial_ms", "ms"}, {"liveserver.start_ms", "ms"}, {"liveserver.start_ms_p99", "ms"},
	{"liveserver.start_samples", "count"}, {"liveserver.stop_ms", "ms"},
	{"liveserver.served", "count"}, {"liveserver.refused", "count"}, {"liveserver.conns", "count"},
	{"proc.cpu_s", "s"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"}, {"go.alloc_mb", "MB"},
	{"bench.unattributed_frac", "ratio"}, {"bench.tracing_overhead_frac", "ratio"}, {"bench.ref_s", "s"},
}

func zeroLayers(res *result) {
	for _, m := range perLayer {
		res.set(m.name, 0, m.unit)
	}
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

var workloads = map[string]func(config) (*result, error){
	"generate":     runGenerate,
	"characterize": runCharacterize,
	"live-control": runLive,
}

func main() {
	cfg := config{genScale: 1, charScale: 16, days: 28, conns: runtime.NumCPU()}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "generate, characterize or live-control")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", "", "directory with the built lsmgen, lsmcal and lsmserve (required)")
	flag.StringVar(&cfg.work, "work", "", "scratch directory (required)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.bin == "" || cfg.work == "" || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "lsmbench: need -workload generate|characterize|live-control, -bin, -work, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	res, err := execute(cfg, run)
	if err != nil && !errors.Is(err, errCheck) {
		fmt.Fprintln(os.Stderr, "lsmbench:", err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmbench:", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "lsmbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload in a fresh work directory and prints the
// human-readable summary that precedes the JSON line. A failed output
// check still returns the result, marked incorrect.
func execute(cfg config, run func(config) (*result, error)) (*result, error) {
	dir := filepath.Join(cfg.work, cfg.workload)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg.work = dir
	res, err := run(cfg)
	if res == nil {
		return nil, err
	}
	res.Correct = err == nil && res.Failed == 0
	if res.Failed > 0 && err == nil {
		err = checkf("%d of %d attempts failed", res.Failed, res.Attempted)
	}
	printSummary(res)
	return res, err
}

func printSummary(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// printEnv records the hardware and the parallelism every number was
// measured with.
func printEnv(extra string) {
	fmt.Printf("env: nproc=%d gomaxprocs=%d go=%s cpu=%q %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), extra)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// until repeats rep until the measurement budget is spent: at least
// once, and again only while one more repetition of the last one's
// length still fits.
func until(budget time.Duration, rep func() error) error {
	begin := time.Now()
	for {
		t0 := time.Now()
		if err := rep(); err != nil {
			return err
		}
		last := time.Since(t0)
		if time.Since(begin)+last > budget {
			return nil
		}
	}
}

func (c config) budget() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// median returns the middle value (mean of the two middle values for
// an even count) of xs; xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the linear-interpolation q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
