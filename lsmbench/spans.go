package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. An aggregate span sums many short calls (a pull per
// slab, a write per entry) that would be too many to keep one by one.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the traced run began
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`          // index of the enclosing span, -1 at the root
	Calls  int64   `json:"calls,omitempty"` // aggregate spans: calls summed
	Busy   float64 `json:"busy_s,omitempty"`
}

func (s span) duration() float64 {
	if s.Calls > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// tracer keeps the spans of one traced run in memory, plus the Go
// runtime's GC and allocation counters over the run.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int

	mem0                         runtime.MemStats
	gcCycles, gcPauseMs, allocMB float64
}

func newTracer() *tracer {
	t := &tracer{}
	runtime.ReadMemStats(&t.mem0)
	t.t0 = time.Now()
	return t
}

// finish records the runtime counters accumulated since newTracer.
func (t *tracer) finish() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.gcCycles = float64(m.NumGC - t.mem0.NumGC)
	t.gcPauseMs = float64(m.PauseTotalNs-t.mem0.PauseTotalNs) / 1e6
	t.allocMB = float64(m.TotalAlloc-t.mem0.TotalAlloc) / (1 << 20)
}

// setTraced reports, as medians, what every traced offline workload
// measures besides its layers: the process CPU of the untraced runs,
// the Go runtime counters and unattributed share of the traced ones,
// the traced runs' wall time relative to the untraced wall, and the
// reference task's time.
func setTraced(res *result, runs []*tracer, cpus []time.Duration, wall, ref float64) {
	var gc, pause, alloc, unattr, traced []float64
	for _, t := range runs {
		gc, pause, alloc = append(gc, t.gcCycles), append(pause, t.gcPauseMs), append(alloc, t.allocMB)
		unattr, traced = append(unattr, t.unattributed()), append(traced, t.wall())
	}
	res.set("bench.unattributed_frac", median(unattr), "ratio")
	res.set("bench.tracing_overhead_frac", (median(traced)-wall)/wall, "ratio")
	res.set("proc.cpu_s", median(seconds(cpus)), "s")
	res.set("bench.ref_s", ref, "s")
	res.set("go.gc_cycles", median(gc), "count")
	res.set("go.gc_pause_ms", median(pause), "ms")
	res.set("go.alloc_mb", median(alloc), "MB")
}

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

func (t *tracer) parent() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: t.parent()})
	t.stack = append(t.stack, i)
	err := f()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = t.now()
	return err
}

// aggregate records calls totalling busy inside the current span.
func (t *tracer) aggregate(name string, busy time.Duration, calls int64) {
	now := t.now()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: t.parent(), Calls: calls, Busy: busy.Seconds()})
}

// selfTimes sums, per span name, each span's duration minus the time
// its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += s.duration()
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.duration()
		}
	}
	return self
}

// writeSpans saves every traced run's spans as JSON.
func writeSpans(path string, runs []*tracer) error {
	all := make([][]span, len(runs))
	for i, t := range runs {
		all[i] = t.spans
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layer names the per-layer metric a span's self time is reported as.
type layer struct{ metric, span string }

// layerMedians reports, for each layer, the median over traced runs of
// its span's self time.
func layerMedians(res *result, runs []*tracer, layers []layer) {
	for _, l := range layers {
		vals := make([]float64, len(runs))
		for i, t := range runs {
			vals[i] = t.selfTimes()[l.span]
		}
		res.set(l.metric, median(vals), "s")
	}
}

// wall is the duration of the run's root span, the first one recorded.
func (t *tracer) wall() float64 { return t.spans[0].duration() }

// unattributed is the share of a traced run's wall time that no layer
// span covers: the root span's self time over its duration.
func (t *tracer) unattributed() float64 {
	return t.selfTimes()[t.spans[0].Name] / t.wall()
}
