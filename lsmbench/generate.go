package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"repro/internal/gismo"
	"repro/internal/simulate"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// lsmgen's run banner and summary lines, parsed for the parallelism it
// chose and the counts the characterize check needs.
var (
	bannerRE = regexp.MustCompile(`(\d+) shards, (\d+) serve lanes`)
	servedRE = regexp.MustCompile(`served (\d+) transfers from (\d+) sessions \(peak concurrency (\d+), (\d+) corrupt entries injected\)`)
)

// Seeds differ in how many transfers their audience draws (the model
// varies each day's audience, so paper-scale seeds serve 2.0M to 2.7M
// transfers), and the offline workloads' times follow the size. They
// report set-up and wall times scaled to the seed-1 size of their
// workload: the time a run at the seed's speed would take on the seed-1
// input.
const (
	paperTransfers = 2472417 // lsmgen -scale 1 -days 28 -seed 1
	charTransfers  = 154646  // lsmgen -scale 16 -days 28 -seed 1
)

// scaled converts seconds spent on n transfers to seconds for base
// transfers.
func scaled(secs float64, base, n int) float64 {
	return secs * float64(base) / float64(n)
}

// genSummary is what one lsmgen run reports about itself.
type genSummary struct {
	shards, lanes                       int
	transfers, sessions, peak, injected int
}

func parseGenSummary(stdout string) (genSummary, error) {
	var g genSummary
	b := bannerRE.FindStringSubmatch(stdout)
	s := servedRE.FindStringSubmatch(stdout)
	if b == nil || s == nil {
		return g, fmt.Errorf("lsmgen output not understood:\n%s", stdout)
	}
	atoi := func(x string) int { n, _ := strconv.Atoi(x); return n }
	g.shards, g.lanes = atoi(b[1]), atoi(b[2])
	g.transfers, g.sessions, g.peak, g.injected = atoi(s[1]), atoi(s[2]), atoi(s[3]), atoi(s[4])
	return g, nil
}

func genArgs(cfg config, scale float64, out string, extra ...string) []string {
	return append([]string{"-stream",
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64),
		"-days", strconv.Itoa(cfg.days),
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-out", out}, extra...)
}

// runGenerate measures `lsmgen -stream` at the default shard and lane
// counts. Set-up produces the expected realization digest with a
// sequential (-shards 1 -serve-lanes 1) run; every measured run must
// reproduce it, and so must the recorded digest where the seed has one.
func runGenerate(cfg config) (*result, error) {
	res := &result{}
	out := filepath.Join(cfg.work, "logs")
	ref := refTask()

	res.Attempted++
	t0 := time.Now()
	seqRun, err := runChild(cfg.bin, "lsmgen", genArgs(cfg, cfg.genScale, out, "-shards", "1", "-serve-lanes", "1")...)
	if err != nil {
		return nil, err
	}
	want, _, err := logDigest(out)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	seqSum, err := parseGenSummary(seqRun.stdout)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(out); err != nil {
		return nil, err
	}
	if rec, ok := genDigests[runKey{cfg.genScale, cfg.days, cfg.seed}]; ok {
		if err := checkDigest("sequential reference", want, rec); err != nil {
			res.Failed++
			return res, err
		}
	}

	var walls, cpus []time.Duration
	var rssMB []float64
	var sum genSummary
	var runs []*tracer
	var layers genLayers
	var checkErr error
	rep := func() error {
		res.Attempted++
		c, err := runChild(cfg.bin, "lsmgen", genArgs(cfg, cfg.genScale, out)...)
		if err != nil {
			return err
		}
		if sum, err = parseGenSummary(c.stdout); err != nil {
			return err
		}
		got, _, err := logDigest(out)
		if err != nil {
			return err
		}
		if err := os.RemoveAll(out); err != nil {
			return err
		}
		walls, cpus = append(walls, c.wall), append(cpus, c.cpu)
		rssMB = append(rssMB, c.maxRSS)
		check := checkDigest("realization", got, want)
		if cfg.trace {
			t, l, err := tracedGenerate(cfg, out)
			if err != nil {
				return err
			}
			if err := os.RemoveAll(out); err != nil {
				return err
			}
			check = firstErr(check, checkDigest("traced realization", l.digest, want))
			if l.nextCalls > 0 || l.slabs == 0 {
				check = firstErr(check, checkf("traced run left the fused dispatch path (%d Next calls, %d slabs)", l.nextCalls, l.slabs))
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
	printEnv(fmt.Sprintf("shards=%d lanes=%d", sum.shards, sum.lanes))
	wall := median(seconds(walls))
	fmt.Printf("generate: scale %g, %d days, seed %d: %d transfers, %d sessions, digest %s; %d runs, median wall %.4g s, %.4g transfers/s; reference task %.4g s\n",
		cfg.genScale, cfg.days, cfg.seed, sum.transfers, sum.sessions, want, len(walls), wall, float64(sum.transfers)/wall, ref)
	if !cfg.trace {
		res.set("setup_s", scaled(setup.Seconds(), paperTransfers, seqSum.transfers), "s")
		res.set("wall_s", scaled(wall, paperTransfers, sum.transfers), "s")
		res.set("peak_rss_mb", median(rssMB), "MB")
		return res, checkErr
	}
	zeroLayers(res)
	layerMedians(res, runs, []layer{
		{"gismo.setup_s", "gismo.NewStream"},
		{"gismo.pull_s", "workload.ShardedStream.NextSlab"},
		{"simulate.self_s", "simulate.RunStreamSharded"},
		{"wmslog.write_s", "wmslog.DailyWriter.Write"},
		{"wmslog.close_s", "wmslog.DailyWriter.Close"},
	})
	res.set("gismo.events", float64(layers.events), "count")
	res.set("gismo.sessions", float64(layers.sessions), "count")
	res.set("simulate.transfers", float64(layers.sr.Transfers), "count")
	res.set("simulate.peak_concurrency", float64(layers.sr.PeakConcurrency), "count")
	res.set("simulate.injected", float64(layers.sr.Injected), "count")
	res.set("wmslog.bytes", float64(layers.bytes), "B")
	setTraced(res, runs, cpus, wall, ref)
	return res, firstErr(checkErr, writeSpans(filepath.Join(cfg.work, "spans.json"), runs))
}

// genLayers is what the traced generate run counts besides its spans.
type genLayers struct {
	events, sessions, slabs, nextCalls int64
	bytes                              int64
	sr                                 simulate.StreamResult
	digest                             string
}

// tracedStream times the serve side's pulls from the generator. It
// implements workload.ShardedStream so that RunStreamSharded keeps the
// fused merge-dispatch path it takes for the bare generator. Only the
// dispatcher goroutine calls it; its counters are read after
// RunStreamSharded has returned.
type tracedStream struct {
	ws                       *gismo.WorkloadStream
	pull                     time.Duration
	slabs, events, nextCalls int64
}

var _ workload.ShardedStream = (*tracedStream)(nil)

func (s *tracedStream) Next() (workload.Event, bool) {
	t0 := time.Now()
	e, ok := s.ws.Next()
	s.pull += time.Since(t0)
	s.nextCalls++
	if ok {
		s.events++
	}
	return e, ok
}

func (s *tracedStream) NextSlab(shard int) ([]workload.Event, bool) {
	t0 := time.Now()
	slab, ok := s.ws.NextSlab(shard)
	s.pull += time.Since(t0)
	s.slabs++
	s.events += int64(len(slab))
	return slab, ok
}

func (s *tracedStream) RecycleSlab(shard int, slab []workload.Event) { s.ws.RecycleSlab(shard, slab) }
func (s *tracedStream) Shards() int                                  { return s.ws.Shards() }
func (s *tracedStream) Close()                                       { s.ws.Close() }

// tracedGenerate runs lsmgen's streaming pipeline in process, with the
// same model, seed derivation and parallelism, timing each layer call.
func tracedGenerate(cfg config, out string) (*tracer, genLayers, error) {
	var l genLayers
	model, err := gismo.Scaled(cfg.genScale, cfg.days)
	if err != nil {
		return nil, l, err
	}
	if err := model.Validate(); err != nil {
		return nil, l, err
	}
	runtime.GC()
	t := newTracer()
	err = t.do("lsmgen", func() error {
		rng := rand.New(rand.NewSource(cfg.seed))
		var ws *gismo.WorkloadStream
		err := t.do("gismo.NewStream", func() (err error) {
			ws, err = gismo.NewStream(model, rng.Int63(), gismo.DefaultShards())
			return err
		})
		if err != nil {
			return err
		}
		defer ws.Close()
		dw, err := wmslog.NewDailyWriter(out)
		if err != nil {
			return err
		}
		ts := &tracedStream{ws: ws}
		var writeBusy time.Duration
		var writes int64
		sink := func(e *wmslog.Entry) error {
			t0 := time.Now()
			err := dw.Write(e)
			writeBusy += time.Since(t0)
			writes++
			return err
		}
		err = t.do("simulate.RunStreamSharded", func() error {
			sr, err := simulate.RunStreamSharded(ts, ws.Population(), model.Horizon, simulate.DefaultConfig(),
				uint64(cfg.seed), simulate.DefaultServeLanes(), simulate.StreamSinks{Entry: sink})
			t.aggregate("workload.ShardedStream.NextSlab", ts.pull, ts.slabs+ts.nextCalls)
			t.aggregate("wmslog.DailyWriter.Write", writeBusy, writes)
			if sr != nil {
				l.sr = *sr
			}
			return err
		})
		if err != nil {
			dw.Close()
			return err
		}
		l.events, l.slabs, l.nextCalls, l.sessions = ts.events, ts.slabs, ts.nextCalls, int64(ws.Sessions())
		return t.do("wmslog.DailyWriter.Close", dw.Close)
	})
	t.finish()
	if err != nil {
		return nil, l, err
	}
	l.digest, l.bytes, err = logDigest(out)
	return t, l, err
}
