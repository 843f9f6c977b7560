package simulate

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/dist"
	"repro/internal/gismo"
	"repro/internal/heapx"
	"repro/internal/trace"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// serveLane is the seed-derivation lane of the serve side, disjoint
// from the generator's lanes 0–4 (internal/gismo), so a caller may
// reuse one seed for generation and serving without correlating the
// two. Every per-transfer draw comes from a splitmix stream keyed by
// (seed, serveLane, event.Session, event.Seq) — a pure function of the
// event identity. That is the sharded-serve contract: any assignment of
// events to serve lanes draws exactly the same values, so the log
// bytes are invariant under the lane count (mirroring the generator's
// shard-seeding scheme, DESIGN.md).
const serveLane uint64 = 5

// StreamSinks receives the simulator's output as it is produced.
// Transfer is called in request-start order; Entry is called in log
// order (non-decreasing timestamp — entries are released once no
// still-active transfer can end earlier). Either may be nil. A sink
// error aborts the run.
//
// The *wmslog.Entry passed to Entry is pooled: it is valid only for
// the duration of the call and is recycled afterwards. A sink that
// needs to retain it must copy the value.
type StreamSinks struct {
	Transfer func(trace.Transfer) error
	Entry    func(*wmslog.Entry) error
}

// StreamResult summarizes a streamed simulation run.
type StreamResult struct {
	// Transfers is the number of genuine transfers served.
	Transfers int
	// PeakConcurrency is the maximum number of simultaneously active
	// transfers observed.
	PeakConcurrency int
	// Injected counts corrupt spanning entries emitted among the
	// genuine ones (Section 2.4 artifacts).
	Injected int
	// TotalBytes sums bytes served across genuine transfers.
	TotalBytes int64
}

// RunStream serves an event stream sequentially, holding O(active
// transfers) of state: the concurrency tracker plus a reorder buffer of
// log entries for transfers that have started but not yet ended
// (entries are timestamped at transfer end, requests arrive in start
// order). Run is a materializing wrapper around it; RunStreamSharded
// is the parallel form, byte-identical at any lane count, and shares
// its admit and emit steps (admitter, emitter) with this path.
//
// pop must cover every client ID in the stream; horizon bounds the
// trace. seed drives every server-model draw deterministically:
// per-transfer randomness is keyed by (seed, event identity), so equal
// seeds give identical logs regardless of how the serving is
// parallelized. Spanning-entry injection (cfg.SpanningPerMillion) is a
// per-transfer Bernoulli draw at the same expected rate as the
// original materializing path's fixed count.
func RunStream(src workload.Stream, pop *gismo.Population, horizon int64, cfg Config, seed uint64, sinks StreamSinks) (*StreamResult, error) {
	if err := validateRun(cfg, pop, horizon); err != nil {
		return nil, err
	}
	defer workload.CloseStream(src)

	// Single-goroutine serving recycles entries through a plain
	// freelist; only the sharded path needs lane arenas.
	pool := &freeEntryPool{}
	es := newEventServer(&cfg, pop, horizon, seed, pool, sinks)
	adm := newAdmitter(pop)
	em := newEmitter(pool, sinks)
	var sv served
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		conc, err := adm.admit(ev)
		if err != nil {
			return nil, err
		}
		es.serve(ev, conc, &sv)
		if err := em.emit(ev.Start, &sv); err != nil {
			return nil, err
		}
	}
	return em.finish(adm.conc.peak)
}

// validateRun checks the arguments both serve paths share.
func validateRun(cfg Config, pop *gismo.Population, horizon int64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if pop == nil || pop.Size() == 0 {
		return fmt.Errorf("%w: empty population", ErrBadConfig)
	}
	if horizon <= 0 {
		return fmt.Errorf("%w: horizon %d", ErrBadConfig, horizon)
	}
	return nil
}

// admitter is the serial admission step both serve paths run on every
// event, in stream order: it enforces the stream contract (clients
// inside the population, non-decreasing start) and returns the
// concurrency level the event is served at.
type admitter struct {
	clients   int
	n         int64 // events admitted so far
	lastStart int64
	conc      *concurrencyTracker
}

func newAdmitter(pop *gismo.Population) *admitter {
	return &admitter{clients: pop.Size(), conc: newConcurrencyTracker()}
}

func (a *admitter) admit(ev workload.Event) (int, error) {
	if ev.Client < 0 || ev.Client >= a.clients {
		return 0, fmt.Errorf("%w: client %d outside population of %d", ErrBadConfig, ev.Client, a.clients)
	}
	if a.n > 0 && ev.Start < a.lastStart {
		return 0, fmt.Errorf("%w: stream not in start order (%d after %d)", ErrBadConfig, ev.Start, a.lastStart)
	}
	a.lastStart = ev.Start
	a.n++
	return a.conc.admit(ev.Start, ev.End()), nil
}

// emitter is the emit step both serve paths run on every served
// transfer, in admission order: it releases the log entries no longer
// reorderable, calls the Transfer sink, buffers the transfer's entries
// until their end time passes, and tallies the result.
type emitter struct {
	sinks   StreamSinks
	pending pendingEntries
	res     StreamResult
}

func newEmitter(pool entryPool, sinks StreamSinks) *emitter {
	return &emitter{sinks: sinks, pending: newPendingEntries(pool)}
}

// emit sinks one served transfer that started at start. On error the
// transfer's own entries are released, so the caller only has to
// discard what is still buffered.
//
//lsm:hotpath
func (em *emitter) emit(start int64, sv *served) error {
	if err := em.pending.flushThrough(start, false, em.sinks.Entry); err != nil {
		releaseServed(sv)
		return err
	}
	em.res.Transfers++
	em.res.TotalBytes += sv.bytes
	if em.sinks.Transfer != nil {
		if err := em.sinks.Transfer(sv.transfer); err != nil {
			releaseServed(sv)
			return err
		}
	}
	if sv.entry != nil {
		em.pending.push(sv.end, sv.entry, sv.entryC)
		if sv.dup != nil {
			em.pending.push(sv.end, sv.dup, sv.dupC)
		}
	}
	if sv.injected {
		em.res.Injected++
	}
	return nil
}

// finish flushes every buffered entry and returns the run's result.
func (em *emitter) finish(peak int) (*StreamResult, error) {
	if em.res.Transfers == 0 {
		return nil, fmt.Errorf("%w: empty workload", ErrBadConfig)
	}
	if err := em.pending.flushThrough(0, true, em.sinks.Entry); err != nil {
		em.discard()
		return nil, err
	}
	em.res.PeakConcurrency = peak
	return &em.res, nil
}

// discard releases every buffered entry without sinking it — the
// abort path.
func (em *emitter) discard() {
	_ = em.pending.flushThrough(0, true, nil) // nil sink never errors
}

// served is one transfer's complete serving outcome: the trace record,
// the pooled log entry, and — for the rare Section 2.4 injection — a
// corrupt spanning twin. transfer and entry are only populated when
// the run has the corresponding sink. entryC/dupC are the arena chunks
// owning the entries on the sharded path (nil on the sequential path,
// whose freelist pool has no chunks); they ride along so the collector
// can release each entry to its owning lane.
type served struct {
	transfer trace.Transfer
	entry    *wmslog.Entry
	entryC   *entryChunk
	dup      *wmslog.Entry
	dupC     *entryChunk
	end      int64
	bytes    int64
	injected bool
}

// releaseServed returns a discarded result's pooled entries to their
// owning lane chunks — the abort path, where no sink will ever see
// them.
func releaseServed(sv *served) {
	if sv.entryC != nil {
		sv.entryC.release()
	}
	if sv.dupC != nil {
		sv.dupC.release()
	}
	sv.entry, sv.entryC = nil, nil
	sv.dup, sv.dupC = nil, nil
}

// eventServer computes one transfer's server-model outcome from the
// event alone (plus the concurrency level the dispatcher observed).
// Each serve reseeds a splitmix source with the event's derived seed,
// so the draws are a pure function of (seed, Session, Seq) — the
// property both the sequential and the sharded serve paths rely on for
// byte-identical logs. Not safe for concurrent use; sharded serving
// gives each lane its own eventServer over the same seed.
type eventServer struct {
	cfg          *Config
	pop          *gismo.Population
	root         uint64
	src          *dist.SplitMix64
	rng          *rand.Rand
	uris         []string // lazily built object-URI cache, shared by entries
	horizon      int64
	injectP      float64
	pool         entryPool
	wantTransfer bool
	wantEntry    bool
}

func newEventServer(cfg *Config, pop *gismo.Population, horizon int64, seed uint64, pool entryPool, sinks StreamSinks) *eventServer {
	src := dist.NewSplitMix64(0)
	return &eventServer{
		cfg:          cfg,
		pop:          pop,
		root:         dist.Mix64(seed, serveLane),
		src:          src,
		rng:          rand.New(src),
		horizon:      horizon,
		injectP:      float64(cfg.SpanningPerMillion) / 1_000_000,
		pool:         pool,
		wantTransfer: sinks.Transfer != nil,
		wantEntry:    sinks.Entry != nil,
	}
}

// serve computes the outcome of one event at the given concurrency
// level into *sv (overwritten entirely; an out-param so the hot loop
// copies no large struct). The draw order (CPU, bandwidth, loss,
// injection) is fixed — it is part of the deterministic-serve
// contract — and every draw is made regardless of which sinks exist,
// so the outcome never depends on who is listening. Only the
// materialization of the trace record and the log entry is skipped
// for absent sinks.
//
//lsm:hotpath
func (es *eventServer) serve(ev workload.Event, conc int, sv *served) {
	es.src.Seed(int64(dist.Mix64(dist.Mix64(es.root, uint64(ev.Session)), uint64(ev.Seq))))
	client := &es.pop.Clients[ev.Client]
	cfg := es.cfg
	cpu := cfg.cpuAt(conc, es.rng)
	bw, congested := cfg.drawBandwidth(client.Access.Bps, es.rng)
	payload := bw
	if payload > cfg.EncodingBps {
		payload = cfg.EncodingBps
	}
	bytes := payload * ev.Duration / 8
	loss := cfg.drawLoss(ev.Duration, congested, es.rng)

	*sv = served{end: ev.End(), bytes: bytes}
	if es.wantTransfer {
		sv.transfer = trace.Transfer{
			Client:    ev.Client,
			IP:        client.Placement.IP,
			AS:        client.Placement.ASIndex + 1,
			Country:   client.Placement.Country,
			Object:    ev.Object,
			Start:     ev.Start,
			Duration:  ev.Duration,
			Bytes:     bytes,
			Bandwidth: bw,
			ServerCPU: cpu,
		}
	}
	if es.wantEntry {
		entry, chunk := es.pool.get()
		sv.entryC = chunk
		*entry = wmslog.Entry{
			Timestamp:    cfg.Epoch.Add(time.Duration(sv.end) * time.Second),
			ClientIP:     client.Placement.IP,
			PlayerID:     client.PlayerID,
			ClientOS:     client.OS,
			ClientCPU:    client.CPU,
			URIStem:      es.uri(ev.Object),
			Duration:     ev.Duration,
			Bytes:        bytes,
			AvgBandwidth: bw,
			PacketsLost:  loss,
			ServerCPU:    cpu,
			Referer:      "http://show.example.br/aovivo",
			Status:       200,
			ASNumber:     client.Placement.ASIndex + 1,
			Country:      client.Placement.Country,
		}
		sv.entry = entry
	}

	// Section 2.4 multi-harvest artifacts: with probability
	// SpanningPerMillion/1e6 the entry gains a corrupt twin whose
	// duration exceeds the trace period.
	if es.injectP > 0 && es.rng.Float64() < es.injectP {
		sv.injected = true
		dur := es.horizon + int64(es.rng.IntN(1_000_000)) + 1
		if sv.entry != nil {
			dup, chunk := es.pool.get()
			*dup = *sv.entry
			dup.Duration = dur
			dup.Bytes = dur * 1000
			sv.dup = dup
			sv.dupC = chunk
		}
	}
}

// uri returns the cached URI string for an object index, so the hot
// path never re-renders it (entries share the cached string).
func (es *eventServer) uri(obj int) string {
	for obj >= len(es.uris) {
		es.uris = append(es.uris, "")
	}
	if es.uris[obj] == "" {
		es.uris[obj] = ObjectURI(obj)
	}
	return es.uris[obj]
}

// entryPool recycles wmslog.Entry values between the serve workers and
// the sink: a transfer's entry is recycled as soon as the Entry sink
// returns, so a streamed run allocates entries proportional to the
// reorder buffer's high-water mark (~peak concurrency), not to the
// transfer count. get may hand back the entry's owning arena chunk
// (nil for chunkless pools); callers thread it to the matching put so
// arena-backed entries release to the right lane.
type entryPool interface {
	get() (*wmslog.Entry, *entryChunk)
	put(*wmslog.Entry, *entryChunk)
}

// freeEntryPool is the single-goroutine pool the sequential path uses:
// a plain LIFO freelist, no synchronization, no chunks. The sharded
// path uses per-lane arenas instead (see arena.go).
type freeEntryPool struct {
	free []*wmslog.Entry
}

func (ep *freeEntryPool) get() (*wmslog.Entry, *entryChunk) {
	if n := len(ep.free); n > 0 {
		e := ep.free[n-1]
		ep.free = ep.free[:n-1]
		return e, nil
	}
	return new(wmslog.Entry), nil
}

// put returns an entry to the freelist.
//
//lsm:retain -- the pool is the recycler: entries are handed back here precisely when the sink is done with them
func (ep *freeEntryPool) put(e *wmslog.Entry, _ *entryChunk) { ep.free = append(ep.free, e) }

// pendingEntries is the reorder buffer of not-yet-emitted log entries,
// a min-heap on (transfer end, admission order). The secondary key
// makes the emission order — and therefore the log bytes — fully
// deterministic under timestamp ties.
type pendingEntries struct {
	heap heapx.Heap[pendingEntry]
	seq  int64
	pool entryPool
}

type pendingEntry struct {
	end   int64
	seq   int64
	entry *wmslog.Entry
	chunk *entryChunk
}

func newPendingEntries(pool entryPool) pendingEntries {
	return pendingEntries{heap: heapx.New(func(a, b pendingEntry) bool {
		if a.end != b.end {
			return a.end < b.end
		}
		return a.seq < b.seq
	}), pool: pool}
}

// push buffers an entry until the start watermark passes its end time.
//
//lsm:retain -- the reorder buffer owns entries between push and pop; flushThrough recycles them into the pool after the sink call
func (p *pendingEntries) push(end int64, e *wmslog.Entry, c *entryChunk) {
	p.heap.Push(pendingEntry{end: end, seq: p.seq, entry: e, chunk: c})
	p.seq++
}

// flushThrough emits (and recycles) every buffered entry whose end
// time is at or before the start watermark — no still-active transfer
// can end earlier — or everything when all is set.
func (p *pendingEntries) flushThrough(start int64, all bool, sink func(*wmslog.Entry) error) error {
	for p.heap.Len() > 0 && (all || p.heap.Peek().end <= start) {
		pe := p.heap.Pop()
		if sink != nil {
			if err := sink(pe.entry); err != nil {
				p.pool.put(pe.entry, pe.chunk)
				return err
			}
		}
		p.pool.put(pe.entry, pe.chunk)
	}
	return nil
}
