package simulate

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/gismo"
	"repro/internal/ring"
	"repro/internal/workload"
)

const (
	// serveBatch is the number of admitted events the dispatcher hands
	// a lane at once: large enough that the per-batch ring handoff is
	// noise next to the per-event serve work, small enough that the
	// batches in flight stay a few MB at 8 lanes.
	serveBatch = 128
	// serveRingDepth is the capacity, in batches, of each lane's input
	// and output ring: how far the dispatcher may run ahead of a
	// worker, and a worker ahead of the collector, before backpressure
	// parks them.
	serveRingDepth = 4
	// MaxServeLanes bounds the serve worker count.
	MaxServeLanes = 1024
)

// DefaultServeLanes is the default serve-lane count: one lane per
// schedulable CPU (GOMAXPROCS), clamped to [1, MaxServeLanes]. The
// served log is byte-identical at any lane count, so the default only
// chooses throughput, never output.
func DefaultServeLanes() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > MaxServeLanes {
		n = MaxServeLanes
	}
	return n
}

// serveJob is one admitted event in a batch: the dispatcher fills ev
// and conc, the lane worker serves it into sv in place, and the
// collector emits sv.
type serveJob struct {
	ev   workload.Event
	conc int
	sv   served
}

// fusedDispatch merges a ShardedStream's shard slabs directly in the
// dispatcher: a loop-min scan over one cached head per shard, exactly
// the merge gismo's Next runs — but batch-at-a-time over slabs, with
// drained slabs recycled to their producing shard, and without the
// per-event interface call or the separate merge stage. admit is the
// dispatcher's validate-and-stage step; fusedDispatch returns false
// as soon as admit does.
//
//lsm:hotpath
func fusedDispatch(ss workload.ShardedStream, admit func(workload.Event) bool) bool {
	type shardCursor struct {
		hd    workload.Event // == slab[pos]; cached for the scan
		slab  []workload.Event
		pos   int
		shard int
	}
	// The slab contract says slabs are non-empty, but skipping empties
	// here keeps the merge correct for any conforming producer.
	nextSlab := func(s int) ([]workload.Event, bool) {
		for {
			slab, ok := ss.NextSlab(s)
			if !ok {
				return nil, false
			}
			if len(slab) > 0 {
				return slab, true
			}
			ss.RecycleSlab(s, slab)
		}
	}
	cursors := make([]shardCursor, 0, ss.Shards())
	for s := 0; s < ss.Shards(); s++ {
		if slab, ok := nextSlab(s); ok {
			cursors = append(cursors, shardCursor{hd: slab[0], slab: slab, shard: s})
		}
	}
	for len(cursors) > 0 {
		best := 0
		for i := 1; i < len(cursors); i++ {
			if cursors[i].hd.Less(cursors[best].hd) {
				best = i
			}
		}
		c := &cursors[best]
		if !admit(c.hd) {
			return false
		}
		c.pos++
		if c.pos < len(c.slab) {
			c.hd = c.slab[c.pos]
			continue
		}
		ss.RecycleSlab(c.shard, c.slab)
		if slab, ok := nextSlab(c.shard); ok {
			c.slab, c.pos, c.hd = slab, 0, slab[0]
			continue
		}
		last := len(cursors) - 1
		cursors[best] = cursors[last]
		cursors = cursors[:last]
	}
	return true
}

// RunStreamSharded is the parallel form of RunStream. A serial
// dispatcher admits events in start order (validating the stream and
// computing the concurrency level, the only cross-event state) and
// cuts them into batches of serveBatch events; batch b goes to lane
// b mod lanes. Each lane worker serves its batches in place — the
// server-model draws and the log entries, allocated from a private
// arena (see arena.go) — and the collector takes batch b back from
// lane b mod lanes, so admission order is restored by construction.
// The collector emits each transfer through the same step as RunStream
// (see emitter) and recycles the batch to the dispatcher.
//
// When src is a workload.ShardedStream (gismo's sharded generator),
// the dispatcher merges the shard slabs inline (see fusedDispatch)
// instead of pulling events one at a time through Next.
//
// Because every per-transfer draw is a pure function of (seed, event
// identity) — see serveLane — and the collector emits in admission
// order, the sinks observe byte-for-byte the sequence RunStream
// produces: the served log is invariant under the lane count. lanes = 1
// runs the same pipeline with a single worker.
//
// Every handoff is a bounded SPSC ring (internal/ring) carrying whole
// batches: dispatcher → lane k, lane k → collector, and collector →
// dispatcher for the emptied batch buffers.
//
// Liveness: when the collector waits for batch b, it has consumed every
// earlier batch, so lane b mod lanes has delivered every earlier batch
// it was given and can always deliver batch b. On abort (a sink error)
// the stop channel unparks every stage; after they join, the collector
// drains the output rings, releasing entries.
func RunStreamSharded(src workload.Stream, pop *gismo.Population, horizon int64, cfg Config, seed uint64, lanes int, sinks StreamSinks) (*StreamResult, error) {
	if lanes < 1 || lanes > MaxServeLanes {
		return nil, fmt.Errorf("%w: serve lanes %d", ErrBadConfig, lanes)
	}
	if err := validateRun(cfg, pop, horizon); err != nil {
		return nil, err
	}

	stop := make(chan struct{}) // closed by the collector on abort
	in := make([]*ring.SPSC[[]serveJob], lanes)
	out := make([]*ring.SPSC[[]serveJob], lanes)
	for k := range in {
		in[k] = ring.NewSPSC[[]serveJob](serveRingDepth)
		out[k] = ring.NewSPSC[[]serveJob](serveRingDepth)
	}
	// free holds every batch buffer that can be in flight, so the
	// collector's recycle push never fails in practice.
	free := ring.NewSPSC[[]serveJob](lanes*(2*serveRingDepth+1) + 2)

	// Dispatcher. Its error, the concurrency peak and the admitted
	// count are published before the input rings close, which
	// happens-before each worker's output ring closes, which
	// happens-before the collector's final reads.
	var dispatchErr error
	var peak int
	var admitted int64
	var wg sync.WaitGroup
	wg.Add(1 + lanes)
	go func() {
		defer wg.Done()
		adm := newAdmitter(pop)
		var b int
		batch := make([]serveJob, 0, serveBatch)
		defer func() {
			workload.CloseStream(src)
			peak, admitted = adm.conc.peak, adm.n
			for _, r := range in {
				r.Close()
			}
		}()
		// push hands the current batch to its lane and starts the next;
		// it returns false on abort.
		push := func() bool {
			if !in[b%lanes].Push(batch, stop) {
				return false
			}
			b++
			var ok bool
			if batch, ok = free.TryPop(); !ok {
				batch = make([]serveJob, 0, serveBatch)
			}
			return true
		}
		// admit validates one event and appends it to the batch. It
		// returns false on a stream-contract violation (dispatchErr set)
		// or on abort.
		admit := func(ev workload.Event) bool {
			conc, err := adm.admit(ev)
			if err != nil {
				dispatchErr = err
				return false
			}
			batch = append(batch, serveJob{ev: ev, conc: conc})
			return len(batch) < serveBatch || push()
		}
		if ss, ok := src.(workload.ShardedStream); ok {
			if !fusedDispatch(ss, admit) {
				return
			}
		} else {
			for {
				ev, ok := src.Next()
				if !ok {
					break
				}
				if !admit(ev) {
					return
				}
			}
		}
		if len(batch) > 0 {
			push() // the tail
		}
	}()

	// Lane workers: all the per-transfer computation runs here, in
	// parallel across lanes.
	for k := 0; k < lanes; k++ {
		go func(k int) {
			defer wg.Done()
			defer out[k].Close()
			arena := newServeArena()
			defer arena.close()
			es := newEventServer(&cfg, pop, horizon, seed, arena, sinks)
			for {
				batch, ok := in[k].Pop(stop)
				if !ok {
					return // input drained, or aborted
				}
				for i := range batch {
					es.serve(batch[i].ev, batch[i].conc, &batch[i].sv)
				}
				if !out[k].Push(batch, stop) {
					releaseBatch(batch) // aborted: nobody will sink it
					return
				}
			}
		}(k)
	}

	// Collector (this goroutine). A closed, empty out[b%lanes] means no
	// batch b or later exists.
	em := newEmitter(chunkReleaser{}, sinks)
	var firstErr error
	for b := 0; firstErr == nil; b++ {
		batch, ok := out[b%lanes].Pop(nil)
		if !ok {
			break
		}
		for i := range batch {
			if err := em.emit(batch[i].ev.Start, &batch[i].sv); err != nil {
				firstErr = err
				close(stop)
				releaseBatch(batch[i+1:])
				break
			}
		}
		free.TryPush(batch[:0])
	}
	wg.Wait()

	err := firstErr
	if err == nil {
		err = dispatchErr
	}
	if err == nil && int64(em.res.Transfers) != admitted {
		err = fmt.Errorf("simulate: sharded serve emitted %d of %d admitted transfers", em.res.Transfers, admitted)
	}
	if err != nil {
		// Every goroutine has exited; release whatever is still
		// buffered (only output batches hold served entries).
		for _, r := range out {
			for {
				batch, ok := r.TryPop()
				if !ok {
					break
				}
				releaseBatch(batch)
			}
		}
		em.discard()
		return nil, err
	}
	return em.finish(peak)
}

// releaseBatch releases every served entry a discarded batch holds.
func releaseBatch(batch []serveJob) {
	for i := range batch {
		releaseServed(&batch[i].sv)
	}
}
