// Command lsmgen generates a synthetic live-streaming-media workload with
// the extended GISMO model of Veloso et al. (IMC 2002), serves it through
// the simulated Windows Media Server, and writes daily log files.
//
// Usage:
//
//	lsmgen -out logs/ [-scale 150] [-days 7] [-seed 1] [-model model.json]
//	       [-save-model model.json] [-log-format text|binary] [-stream]
//	       [-shards N] [-serve-lanes N]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace trace.out]
//
// -log-format binary writes the daily files in the framed binary
// wmslog format (~5-10× faster to re-parse, auto-detected by every
// reader); text stays the canonical form all md5 contracts are pinned
// to, and `lsmlog convert` round-trips between the two losslessly.
//
// With -stream the pipeline runs in streaming mode: the sharded
// generator feeds the sharded simulator event by event and log entries
// go straight to the daily files, so memory stays O(active sessions)
// instead of O(total requests) — the mode for paper-scale (-scale 1)
// runs. -shards sets the generator shard count and -serve-lanes the
// serve worker count (0 = one per schedulable CPU each). The emitted
// logs are byte-identical between the streaming and the materializing
// path for the same seed, at any shard or lane count.
//
// The profiling flags (internal/prof) capture the run as pprof/trace
// artifacts; `make profile` is the canonical profiling invocation.
//
// The generated logs can then be characterized with lsmchar, or closed
// into the calibration loop with lsmcal. -model loads a model spec
// (e.g. one fitted by `lsmcal -o`) instead of the -scale/-days
// parameterization; -save-model writes the effective model spec so the
// run can be reproduced or adjusted. The two compose: `-model a.json
// -save-model b.json` round-trips the spec byte-identically.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"repro/internal/gismo"
	"repro/internal/prof"
	"repro/internal/simulate"
	"repro/internal/wmslog"
)

// options collects the CLI parameters.
type options struct {
	out        string
	scale      float64
	days       int
	seed       int64
	savePath   string
	loadPath   string
	logFormat  string
	stream     bool
	shards     int
	serveLanes int
}

func main() {
	var o options
	var profiles prof.Profiles
	flag.StringVar(&o.out, "out", "", "directory for daily log files (required)")
	flag.Float64Var(&o.scale, "scale", 150, "population/rate scale-down factor (1 = paper scale)")
	flag.IntVar(&o.days, "days", 7, "trace length in days")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.StringVar(&o.loadPath, "model", "", "model spec JSON to load instead of -scale/-days (e.g. from lsmcal -o)")
	flag.StringVar(&o.savePath, "save-model", "", "optional path to write the effective model spec JSON")
	flag.StringVar(&o.logFormat, "log-format", "text", "daily log format: text (canonical) or binary (framed fast path)")
	flag.BoolVar(&o.stream, "stream", false, "streaming mode: O(active sessions) memory, logs written as served")
	flag.IntVar(&o.shards, "shards", 0, "generator shards in streaming mode (0 = one per CPU)")
	flag.IntVar(&o.serveLanes, "serve-lanes", 0, "serve worker lanes in streaming mode (0 = one per schedulable CPU)")
	profiles.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if o.out == "" {
		fmt.Fprintln(os.Stderr, "lsmgen: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	if o.logFormat != "text" && o.logFormat != "binary" {
		fmt.Fprintf(os.Stderr, "lsmgen: -log-format %q: want text or binary\n", o.logFormat)
		os.Exit(2)
	}
	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "lsmgen:", err)
		os.Exit(1)
	}
	err := run(o)
	if perr := profiles.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmgen:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	model, err := resolveModel(o)
	if err != nil {
		return err
	}
	if o.stream {
		err = runStreaming(o, model)
	} else {
		err = runMaterialized(o, model)
	}
	if err != nil {
		return err
	}
	if o.savePath != "" {
		if err := model.Save(o.savePath); err != nil {
			return err
		}
		fmt.Printf("model written to %s\n", o.savePath)
	}
	return nil
}

func resolveModel(o options) (gismo.Model, error) {
	if o.loadPath != "" {
		return gismo.LoadModel(o.loadPath)
	}
	m, err := gismo.Scaled(o.scale, o.days)
	if err != nil {
		return m, err
	}
	return m, m.Validate()
}

// runMaterialized is the classic path: generate everything, serve
// everything, then write the logs.
func runMaterialized(o options, model gismo.Model) error {
	rng := rand.New(rand.NewSource(o.seed))
	fmt.Printf("generating: %d clients, %d-day horizon, seed %d\n",
		model.NumClients, model.Horizon/86400, o.seed)
	w, err := gismo.Generate(model, rng)
	if err != nil {
		return err
	}
	fmt.Println(w)

	res, err := simulate.Run(w, simulate.DefaultConfig(), uint64(o.seed))
	if err != nil {
		return err
	}
	writeLogs := res.WriteLogs
	if o.logFormat == "binary" {
		writeLogs = res.WriteLogsBinary
	}
	files, err := writeLogs(o.out)
	if err != nil {
		return err
	}
	fmt.Printf("served %d transfers (peak concurrency %d, %d corrupt entries injected)\n",
		res.Trace.NumTransfers(), res.PeakConcurrency, res.Injected)
	fmt.Printf("wrote %d daily log files under %s\n", len(files), o.out)
	return nil
}

// runStreaming pipes the sharded generator straight into the sharded
// simulator and the simulator straight into the daily log writer: no
// workload, trace or entry slice is ever materialized, and both the
// session expansion and the server-model draws run across CPUs.
func runStreaming(o options, model gismo.Model) error {
	shards := o.shards
	if shards == 0 {
		shards = gismo.DefaultShards()
	}
	lanes := o.serveLanes
	if lanes == 0 {
		lanes = simulate.DefaultServeLanes()
	}
	rng := rand.New(rand.NewSource(o.seed))
	ws, err := gismo.NewStream(model, rng.Int63(), shards)
	if err != nil {
		return err
	}
	defer ws.Close()
	fmt.Printf("streaming: %d clients, %d-day horizon, seed %d, %d shards, %d serve lanes, GOMAXPROCS %d\n",
		model.NumClients, model.Horizon/86400, o.seed, shards, lanes, runtime.GOMAXPROCS(0))

	dw, err := wmslog.NewDailyWriter(o.out)
	if err != nil {
		return err
	}
	dw.Binary = o.logFormat == "binary"
	res, err := simulate.RunStreamSharded(ws, ws.Population(), model.Horizon, simulate.DefaultConfig(), uint64(o.seed), lanes, simulate.StreamSinks{
		Entry: dw.Write,
	})
	if err != nil {
		dw.Close()
		return err
	}
	if err := dw.Close(); err != nil {
		return err
	}
	fmt.Printf("served %d transfers from %d sessions (peak concurrency %d, %d corrupt entries injected)\n",
		res.Transfers, ws.Sessions(), res.PeakConcurrency, res.Injected)
	fmt.Printf("wrote %d daily log files under %s\n", len(dw.Files()), o.out)
	return nil
}
