// Package ring provides the bounded, allocation-free single-producer
// single-consumer ring (SPSC) the streaming pipeline hands work through:
// gismo's shard slabs and the sharded serve path's batches ride on it.
//
// The design target is that the fast path of every operation is a
// couple of plain loads/stores plus one atomic publish — no channel
// send, no mutex — so the per-item pipeline overhead stays far below
// the per-item work. Blocking is the slow path only: a consumer (or
// producer) that finds the ring empty (full) parks on the ring's gate
// and is woken by the other side's next publish, so liveness never
// depends on spinning and the pipeline behaves on a single-CPU box
// exactly as on a many-core one. Each ring owns its two gates; no gate
// is shared between rings.
package ring

import "sync/atomic"

// gate is a park/wake point: one waiter, any number of wakers. It is
// the condition-variable analogue that composes with an abort channel
// and costs the fast path a single atomic load.
//
// Protocol (waiter side):
//
//	for {
//		if condition { break }
//		g.Prepare()
//		if condition { g.Cancel(); break } // re-check closes the race
//		if !g.Wait(abort) { return }       // parked; false = aborted
//	}
//
// Wakers call Wake after every publish; Wake is a no-op unless a
// waiter announced itself, so the steady-state cost is one atomic
// load. Spurious wake-ups are possible (a stale token) and harmless —
// the waiter always re-checks its condition in a loop. Lost wake-ups
// are not: Prepare's store is sequenced before the waiter's re-check,
// so a publisher that runs after the re-check observes the waiting
// flag and posts the token.
type gate struct {
	waiting atomic.Bool
	ch      chan struct{}
}

func newGate() *gate {
	return &gate{ch: make(chan struct{}, 1)}
}

// Prepare announces the intent to park. The caller MUST re-check its
// condition between Prepare and Wait (see the protocol above).
func (g *gate) Prepare() { g.waiting.Store(true) }

// Cancel retracts a Prepare whose re-check found the condition true,
// dropping any token a concurrent Wake already posted.
func (g *gate) Cancel() {
	g.waiting.Store(false)
	select {
	case <-g.ch:
	default:
	}
}

// Wait parks until a Wake or until abort is closed; it returns false
// on abort. A nil abort never fires.
func (g *gate) Wait(abort <-chan struct{}) bool {
	select {
	case <-g.ch:
		return true
	case <-abort:
		g.waiting.Store(false)
		return false
	}
}

// Wake unparks the waiter if one announced itself. Safe to call from
// any goroutine, any number of times; the fast path (no waiter) is a
// single atomic load.
//
//lsm:hotpath
func (g *gate) Wake() {
	if g.waiting.Load() && g.waiting.Swap(false) {
		select {
		case g.ch <- struct{}{}:
		default:
		}
	}
}
