package simulate

import (
	"sync/atomic"

	"repro/internal/wmslog"
)

// Lane-local entry arenas.
//
// The sharded serve path used to cycle every *wmslog.Entry through one
// mutex/sync.Pool-backed pool shared by all lane workers and the
// collector — a cross-goroutine get/put pair per transfer. The arena
// replaces it with lane ownership: each worker bump-allocates entries
// from private chunked slabs, and whole chunks (not entries) flow back
// once the collector has sunk every entry they hold. Steady-state
// cross-goroutine traffic is one atomic decrement per entry plus one
// channel operation per entryChunkSize entries; the allocation fast
// path is a bump of a worker-private index.
//
// Lifetime contract (the same one StreamSinks.Entry documents and the
// entryretain analyzer enforces): an entry is valid from laneArena.get
// until its chunk's release — which the collector performs right after
// the Entry sink returns (or when an aborted run drains it). Sinks
// retain by copying, never by keeping the pointer.

const (
	// entryChunkSize is the number of entries per slab: large enough
	// that the per-chunk recycle handoff is noise, small enough that a
	// chunk pinned by one long-lived entry in the reorder buffer wastes
	// little.
	entryChunkSize = 256
	// arenaFreeDepth bounds each lane's free-chunk buffer; chunks
	// recycled beyond it are dropped to the garbage collector.
	arenaFreeDepth = 32
)

// entryChunk is one slab of entries. The owning lane worker
// bump-allocates from entries[used:]; live counts outstanding entries
// plus one hold while the chunk is open for allocation, so it can only
// reach zero — and be recycled — after the worker has moved on AND the
// collector has released every entry.
type entryChunk struct {
	entries []wmslog.Entry
	used    int          // worker-owned bump index
	live    atomic.Int32 // outstanding entries + 1 open-hold
	owner   *laneArena
}

// release returns one entry's reference; the final release recycles
// the whole chunk to its owning lane. Called by the collector (after
// the sink returns, or on abort drain) — never by the worker, which
// holds the open-hold instead.
//
//lsm:hotpath
func (c *entryChunk) release() {
	if c.live.Add(-1) == 0 {
		c.owner.recycle(c)
	}
}

// laneArena is one worker's private entry allocator.
type laneArena struct {
	cur    *entryChunk
	free   chan *entryChunk // recycled chunks, pushed by the final release
	chunks int              // chunks ever allocated (worker-owned)
}

func newLaneArena() *laneArena {
	return &laneArena{free: make(chan *entryChunk, arenaFreeDepth)}
}

// newServeArena builds each serve lane's arena; tests swap it to
// inspect the arenas a run leaves behind.
var newServeArena = newLaneArena

// get allocates one entry. Only the owning lane worker calls it; the
// fast path is a bump of the open chunk's index plus one atomic
// increment on a cache line this worker mostly owns.
//
//lsm:hotpath
func (a *laneArena) get() (*wmslog.Entry, *entryChunk) {
	c := a.cur
	if c == nil || c.used == len(c.entries) {
		c = a.refill()
	}
	e := &c.entries[c.used]
	c.used++
	c.live.Add(1)
	return e, c
}

// refill seals the open chunk and installs the next one — recycled if
// the collector has returned any, freshly allocated otherwise.
func (a *laneArena) refill() *entryChunk {
	a.seal()
	var c *entryChunk
	select {
	case c = <-a.free:
		c.used = 0
	default:
		c = &entryChunk{entries: make([]wmslog.Entry, entryChunkSize), owner: a}
		a.chunks++
	}
	c.live.Store(1) // the open-hold
	a.cur = c
	return c
}

// seal closes the open chunk: the open-hold is dropped, so the chunk
// recycles as soon as (possibly immediately, if the collector already
// released everything) its last entry comes back.
func (a *laneArena) seal() {
	if c := a.cur; c != nil {
		a.cur = nil
		if c.live.Add(-1) == 0 {
			a.recycle(c)
		}
	}
}

// recycle accepts a fully-released chunk for reuse; beyond
// arenaFreeDepth the garbage collector takes it. Any releaser may call
// this (the channel serializes), though in steady state it is the
// collector.
func (a *laneArena) recycle(c *entryChunk) {
	select {
	case a.free <- c:
	default:
	}
}

// close seals the arena at worker exit. Chunks still pinned by
// in-flight entries recycle (or fall to the GC) as the collector
// releases them.
func (a *laneArena) close() { a.seal() }

// put implements entryPool for symmetry; the sharded path never
// returns entries through the arena (the collector releases chunks
// directly), so routing one here is a programming error.
func (a *laneArena) put(e *wmslog.Entry, c *entryChunk) {
	if c != nil {
		c.release()
	}
}

// chunkReleaser is the collector-side entryPool: it only ever returns
// entries, routing each to its owning lane's chunk. The collector
// never allocates entries — the lane workers' arenas do.
type chunkReleaser struct{}

func (chunkReleaser) get() (*wmslog.Entry, *entryChunk) {
	panic("simulate: the collector never allocates entries")
}

//lsm:retain -- the releaser is the recycler: entries are handed back here precisely when the sink is done with them
func (chunkReleaser) put(e *wmslog.Entry, c *entryChunk) {
	if c != nil {
		c.release()
	}
}
