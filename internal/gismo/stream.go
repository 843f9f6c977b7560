package gismo

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"runtime"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/heapx"
	"repro/internal/ring"
	"repro/internal/workload"
)

// Seed-derivation lanes (DESIGN.md, shard-seeding scheme). Every random
// decision in a streamed generation is keyed to (seed, lane) — or, for
// session bodies, to (seed, session index) — so the emitted event
// sequence is a pure function of the seed, independent of the shard
// count and of goroutine scheduling.
const (
	laneRate       uint64 = 0 // day factors, ramp, event schedule
	lanePopulation uint64 = 1 // client placement and environment
	laneArrivals   uint64 = 2 // Poisson thinning
	laneSessions   uint64 = 3 // root for per-session body streams
	laneInterest   uint64 = 4 // root for per-session interest draws
)

const (
	// streamBatch is the number of events per slab — the unit a shard
	// hands to the merge layer per ring operation.
	streamBatch = 512
	// streamBatchDepth is the per-shard output-ring depth, bounding how
	// far a fast shard can run ahead of the merge point before it
	// parks.
	streamBatchDepth = 4
	// recycleDepth is the per-shard recycle-ring depth: drained slabs
	// flow back to their producing shard through it, so steady-state
	// generation allocates no slabs at all. It covers every slab that
	// can be in flight (output ring + the shard's fill slab + the
	// consumer's drain slab); a slab that finds the ring full falls to
	// the garbage collector.
	recycleDepth = streamBatchDepth + 4
	// MaxShards bounds the shard count.
	MaxShards = 1024
)

// Consumption modes: a stream is drained through exactly one API —
// Next (event-at-a-time K-way merge) or NextSlab/RecycleSlab (the
// fused dispatcher's batch form). Mixing them would split the merge
// state across two consumers, so the first call locks the mode.
const (
	consumeUnset int8 = iota
	consumeNext
	consumeSlab
)

// WorkloadStream is the sharded streaming form of Generate: the same
// Section 6 generative model, emitted as a time-ordered event stream
// whose working set is the arrival schedule (16 bytes per session) plus
// the active sessions' pending transfers — never the materialized
// request slice.
//
// Construction draws the global arrival schedule once — the Poisson
// thinning, the inherently serial sliver of the work — from the seed's
// arrival lane, overlapped with the population build (the other serial
// prologue cost) on a second goroutine, so cold-start latency is the
// max of the two, not their sum. Each of K shards then walks that
// shared read-only schedule; a session's interest variate comes from a
// counter-mode splitmix draw keyed by (seed, session index), so any
// shard can compute it in O(1), and ownership is the variate's
// K-quantile band: clients are partitioned across shards in contiguous
// interest-weight bands, each carrying ~1/K of the sessions, and only
// the owner pays the O(log N) Zipf inversion. Owned sessions are
// expanded eagerly from a per-session splitmix RNG and released once
// the schedule cursor guarantees nothing earlier can appear.
//
// Each shard emits 512-event slabs over a bounded SPSC ring
// (internal/ring) — park/wake backpressure, no channel scheduling —
// and drained slabs return to their producing shard over a recycle
// ring, so steady-state generation allocates nothing at the seam. The
// K ordered shard outputs merge back into the (Start, Session, Seq)
// total order either event-at-a-time through Next, or slab-at-a-time
// through the workload.ShardedStream batch API (NextSlab/RecycleSlab),
// which the fused serve dispatcher consumes directly. Both views are
// byte-identical for every shard count.
type WorkloadStream struct {
	model      Model
	seed       int64
	shards     int
	pop        *Population
	schedule   []int64 // session arrival instants, ascending
	rings      []shardRings
	cursors    []mergeCursor // Next()'s K-way merge state, lazily built
	mode       int8          // consumeUnset / consumeNext / consumeSlab
	done       chan struct{}
	closed     atomic.Bool
	slabAllocs atomic.Int64 // fresh slab allocations (recycle misses)
}

// shardRings is one shard's seam to the merge layer: filled slabs flow
// consumer-ward on out, drained slab backing arrays flow back on rec.
type shardRings struct {
	out *ring.SPSC[[]workload.Event]
	rec *ring.SPSC[[]workload.Event]
}

// mergeCursor walks one shard's slab sequence for the Next() merge.
// The head event is cached inline so the loop-min scan — the hottest
// comparison of the event-at-a-time path — never chases the slab.
type mergeCursor struct {
	hd    workload.Event
	slab  []workload.Event
	pos   int
	shard int
}

// NewStream validates the model and starts the sharded generator.
// Callers must either drain the stream or Close it.
func NewStream(m Model, seed int64, shards int) (*WorkloadStream, error) {
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("%w: shard count %d", ErrBadModel, shards)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	profile, err := m.profile()
	if err != nil {
		return nil, err
	}
	rateRng := rand.New(dist.NewSplitMix64(dist.Mix64(uint64(seed), laneRate)))
	rateFn, err := m.effectiveRate(profile.Rate, rateRng)
	if err != nil {
		return nil, err
	}
	pp, err := dist.NewPiecewisePoisson(rateFn, m.PoissonWindow)
	if err != nil {
		return nil, err
	}
	interest, err := dist.NewZipf(m.Interest.Alpha, m.Interest.N)
	if err != nil {
		return nil, err
	}
	perSession, err := dist.NewZipf(m.TransfersPerSession.Alpha, m.TransfersPerSession.N)
	if err != nil {
		return nil, err
	}
	gap, err := m.gapSampler()
	if err != nil {
		return nil, err
	}
	length, err := m.lengthSampler()
	if err != nil {
		return nil, err
	}
	// The serial prologue used to run population build, then thinning,
	// then shard spin-up, back to back. The population draws from its
	// own seed lane and the shards never touch it (only the serve side
	// does), so it overlaps with the thinning pass and the shard
	// launch: cold-start latency is max(population, thinning) instead
	// of their sum, and the shards are already expanding sessions while
	// the population is still placing clients.
	type popOutcome struct {
		pop *Population
		err error
	}
	popCh := make(chan popOutcome, 1)
	go func() {
		popRng := randv2.New(dist.NewSplitMix64(dist.Mix64(uint64(seed), lanePopulation)))
		pop, err := NewPopulation(m.NumClients, m.Topology, popRng)
		popCh <- popOutcome{pop, err}
	}()

	ws := &WorkloadStream{
		model:  m,
		seed:   seed,
		shards: shards,
		done:   make(chan struct{}),
	}
	// One pass of Poisson thinning fixes every session's arrival
	// instant. Shards share this schedule read-only; everything
	// per-session happens in them.
	arrRng := rand.New(dist.NewSplitMix64(dist.Mix64(uint64(seed), laneArrivals)))
	arrivals := pp.Stream(arrRng, float64(m.Horizon))
	for {
		at, ok := arrivals.Next()
		if !ok {
			break
		}
		ws.schedule = append(ws.schedule, int64(at))
	}

	ws.rings = make([]shardRings, shards)
	for s := 0; s < shards; s++ {
		ws.rings[s] = shardRings{
			out: ring.NewSPSC[[]workload.Event](streamBatchDepth),
			rec: ring.NewSPSC[[]workload.Event](recycleDepth),
		}
		go ws.runShard(s, ws.rings[s], interest, perSession, gap, length)
	}

	outcome := <-popCh
	if outcome.err != nil {
		ws.Close() // release the already-running shards
		return nil, outcome.err
	}
	ws.pop = outcome.pop
	return ws, nil
}

// interestUniform is session idx's interest variate in [0, 1): the
// counter-mode splitmix stream of the seed's interest lane evaluated at
// idx. Pure and O(1), so every shard can test ownership without
// replaying a sequential RNG.
func interestUniform(interestRoot uint64, idx int) float64 {
	return float64(dist.Mix64(interestRoot, uint64(idx))>>11) / (1 << 53)
}

// Next implements workload.Stream: the event-at-a-time K-way merge
// over the shard rings. The loop-min scan beats heap bookkeeping at
// merge widths this small, and the slab cursors amortize the ring
// traffic to one pop per 512 events.
//
//lsm:hotpath
func (ws *WorkloadStream) Next() (workload.Event, bool) {
	if ws.closed.Load() {
		return workload.Event{}, false
	}
	if ws.mode != consumeNext {
		if ws.mode == consumeSlab {
			panic("gismo: WorkloadStream consumed through both Next and NextSlab")
		}
		ws.mode = consumeNext
		ws.initCursors()
	}
	n := len(ws.cursors)
	if n == 0 {
		return workload.Event{}, false
	}
	best := 0
	for i := 1; i < n; i++ {
		if ws.cursors[i].hd.Less(ws.cursors[best].hd) {
			best = i
		}
	}
	e := ws.cursors[best].hd
	ws.advanceCursor(best)
	return e, true
}

// initCursors primes the merge with each live shard's first slab.
func (ws *WorkloadStream) initCursors() {
	ws.cursors = make([]mergeCursor, 0, ws.shards)
	for s := 0; s < ws.shards; s++ {
		if slab, ok := ws.popSlab(s); ok {
			ws.cursors = append(ws.cursors, mergeCursor{hd: slab[0], slab: slab, shard: s})
		}
	}
}

// advanceCursor steps cursor i past its head: forward within the slab,
// or — at a slab boundary — recycle the drained slab to its shard and
// pull the next one, dropping the cursor when the shard is exhausted.
//
//lsm:hotpath
func (ws *WorkloadStream) advanceCursor(i int) {
	c := &ws.cursors[i]
	c.pos++
	if c.pos < len(c.slab) {
		c.hd = c.slab[c.pos]
		return
	}
	shard := c.shard
	ws.rings[shard].rec.TryPush(c.slab[:0])
	if slab, ok := ws.popSlab(shard); ok {
		c.slab, c.pos, c.hd = slab, 0, slab[0]
		return
	}
	last := len(ws.cursors) - 1
	ws.cursors[i] = ws.cursors[last]
	ws.cursors = ws.cursors[:last]
}

// popSlab pulls the shard's next non-empty slab, parking until the
// shard produces one; false means the shard closed (or the stream was
// closed under the waiter).
func (ws *WorkloadStream) popSlab(s int) ([]workload.Event, bool) {
	for {
		slab, ok := ws.rings[s].out.Pop(ws.done)
		if !ok {
			return nil, false
		}
		if len(slab) > 0 {
			return slab, true
		}
		ws.rings[s].rec.TryPush(slab[:0])
	}
}

// NextSlab implements workload.ShardedStream: the fused dispatcher's
// batch intake. It must not be mixed with Next on the same stream.
//
//lsm:hotpath
func (ws *WorkloadStream) NextSlab(shard int) ([]workload.Event, bool) {
	if ws.mode != consumeSlab {
		if ws.mode == consumeNext {
			panic("gismo: WorkloadStream consumed through both Next and NextSlab")
		}
		ws.mode = consumeSlab
	}
	if ws.closed.Load() {
		return nil, false
	}
	return ws.popSlab(shard)
}

// RecycleSlab implements workload.ShardedStream: the drained slab's
// backing array returns to its producing shard (or, if the shard's
// recycle ring is full, falls to the garbage collector).
//
//lsm:hotpath
func (ws *WorkloadStream) RecycleSlab(shard int, slab []workload.Event) {
	if cap(slab) == 0 {
		return
	}
	ws.rings[shard].rec.TryPush(slab[:0])
}

// Close releases the shard goroutines of a stream that will not be
// drained. It is idempotent; draining to exhaustion makes it a no-op.
func (ws *WorkloadStream) Close() {
	if ws.closed.CompareAndSwap(false, true) {
		close(ws.done)
	}
}

// Population returns the generated client population.
func (ws *WorkloadStream) Population() *Population { return ws.pop }

// Model returns the generating model.
func (ws *WorkloadStream) Model() Model { return ws.model }

// Sessions returns the number of generated sessions (client arrivals).
func (ws *WorkloadStream) Sessions() int { return len(ws.schedule) }

// Shards returns the shard count.
func (ws *WorkloadStream) Shards() int { return ws.shards }

// runShard generates the events of the sessions owned by shard s, in
// stream order, batching them into slabs on the shard's output ring.
// Slabs come from the recycle ring when the consumer has returned any
// (the steady state — zero allocations) and are freshly allocated
// otherwise (cold start, or a consumer that dropped one).
func (ws *WorkloadStream) runShard(s int, rr shardRings, interest, perSession *dist.Zipf, gap, length dist.Lognormal) {
	defer rr.out.Close()
	m := ws.model
	sessionRoot := dist.Mix64(uint64(ws.seed), laneSessions)
	interestRoot := dist.Mix64(uint64(ws.seed), laneInterest)
	interestTotal := interest.Total()
	sessSrc := dist.NewSplitMix64(0)
	sessRng := rand.New(sessSrc)

	pending := newCursorHeap()
	newSlab := func() []workload.Event {
		if slab, ok := rr.rec.TryPop(); ok {
			return slab
		}
		ws.slabAllocs.Add(1)
		return make([]workload.Event, 0, streamBatch)
	}
	batch := newSlab()
	flushBatch := func() bool {
		if !rr.out.Push(batch, ws.done) {
			return false // closed under us; the slab falls to the GC
		}
		batch = newSlab()
		return true
	}
	// Exhausted sessions donate their event slices back; expansion
	// reuses them, so steady-state generation allocates one slice per
	// *concurrently pending* session, not per session.
	var spare [][]workload.Event
	step := func() {
		if done := advanceCursor(&pending); done != nil {
			spare = append(spare, done[:0])
		}
	}
	nextBuf := func() []workload.Event {
		if n := len(spare); n > 0 {
			b := spare[n-1]
			spare = spare[:n-1]
			return b
		}
		return nil
	}

	for idx, at := range ws.schedule {
		bound := workload.Event{Start: at, Session: idx}
		// Release pending events that precede the next arrival: no
		// later session can produce anything earlier.
		for pending.Len() > 0 && pending.Peek().head().Less(bound) {
			batch = append(batch, pending.Peek().head())
			if len(batch) == streamBatch && !flushBatch() {
				return
			}
			step()
		}
		u := interestUniform(interestRoot, idx)
		if owner := int(u * float64(ws.shards)); owner == s ||
			(owner >= ws.shards && s == ws.shards-1) { // guard float rounding at u→1
			client := interest.RankOfU(u*interestTotal) - 1
			sessSrc.Seed(int64(dist.Mix64(sessionRoot, uint64(idx))))
			if events := expandSession(&m, idx, client, at, sessRng, perSession, gap, length, nextBuf()); len(events) > 0 {
				pending.Push(newCursor(events))
			} else if events != nil {
				spare = append(spare, events[:0])
			}
		}
	}
	for pending.Len() > 0 {
		batch = append(batch, pending.Peek().head())
		if len(batch) == streamBatch && !flushBatch() {
			return
		}
		step()
	}
	if len(batch) > 0 {
		flushBatch()
	}
}

// expandSession draws one session's transfers from its dedicated RNG:
// transfer count (Zipf), intra-session gaps and lengths (lognormal),
// object choice — the same draw order per transfer as the original
// materializing generator, truncated at the horizon. buf, when
// non-nil, is a recycled slice to expand into (its capacity is reused;
// growth falls back to append's normal allocation).
func expandSession(m *Model, session, client int, start int64, rng *rand.Rand, perSession *dist.Zipf, gap, length dist.Lognormal, buf []workload.Event) []workload.Event {
	n := perSession.SampleRank(rng)
	events := buf
	if events == nil {
		events = make([]workload.Event, 0, n)
	}
	t := start
	for k := 0; k < n; k++ {
		if k > 0 {
			t += int64(gap.Sample(rng))
		}
		if t >= m.Horizon {
			break
		}
		d := int64(length.Sample(rng))
		if d < 1 {
			d = 1
		}
		if t+d > m.Horizon {
			d = m.Horizon - t
			if d < 1 {
				break
			}
		}
		events = append(events, workload.Event{
			Session:  session,
			Seq:      len(events),
			Client:   client,
			Object:   m.pickObject(rng),
			Start:    t,
			Duration: d,
		})
	}
	return events
}

// cursor walks one expanded session. Events within a session are in
// stream order by construction (gaps are non-negative, Seq increases).
// The head event is cached inline so heap comparisons — the hottest
// loop of the generator — never chase the events slice.
type cursor struct {
	hd     workload.Event
	events []workload.Event
	pos    int
}

func newCursor(events []workload.Event) cursor {
	return cursor{hd: events[0], events: events}
}

func (c cursor) head() workload.Event { return c.hd }

// newCursorHeap builds the min-heap of session cursors keyed by head
// event.
func newCursorHeap() heapx.Heap[cursor] {
	return heapx.New(func(a, b cursor) bool { return a.hd.Less(b.hd) })
}

// advanceCursor consumes the top cursor's head event: steps it forward
// in place, or removes the cursor when its session is exhausted — in
// which case the session's event slice is returned for reuse.
func advanceCursor(h *heapx.Heap[cursor]) []workload.Event {
	top := h.Top()
	top.pos++
	if top.pos >= len(top.events) {
		done := top.events
		h.Pop()
		return done
	}
	top.hd = top.events[top.pos]
	h.FixTop()
	return nil
}

// DefaultShards picks the shard count for the Generate compatibility
// wrapper: one per CPU, capped. The stream is shard-count-invariant, so
// this only affects speed, never output.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}
