package ring

import (
	"sync"
	"testing"
	"time"
)

func TestSPSCFIFO(t *testing.T) {
	r := NewSPSC[int](8)
	if r.Cap() != 8 {
		t.Fatalf("cap = %d, want 8", r.Cap())
	}
	for i := 0; i < 8; i++ {
		if !r.TryPush(i) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if r.TryPush(99) {
		t.Fatal("push succeeded on full ring")
	}
	for i := 0; i < 8; i++ {
		v, ok := r.TryPop()
		if !ok || v != i {
			t.Fatalf("pop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("pop succeeded on empty ring")
	}
}

func TestSPSCCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {512, 512}, {513, 1024}} {
		if got := NewSPSC[byte](tc.ask).Cap(); got != tc.want {
			t.Errorf("capacity %d rounded to %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestSPSCBlockingStress drives a full producer/consumer pair through a
// tiny ring so both park/wake slow paths run constantly; under -race
// this also proves the slot handoff is properly synchronized.
func TestSPSCBlockingStress(t *testing.T) {
	const n = 200_000
	r := NewSPSC[int](4)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if !r.Push(i, nil) {
				done <- errAt("push aborted", i)
				return
			}
		}
		r.Close()
		done <- nil
	}()
	for i := 0; i < n; i++ {
		v, ok := r.Pop(nil)
		if !ok {
			t.Fatalf("pop %d: ring reported done early", i)
		}
		if v != i {
			t.Fatalf("pop %d = %d, out of order", i, v)
		}
	}
	if _, ok := r.Pop(nil); ok {
		t.Fatal("pop succeeded after the producer's final item")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func errAt(msg string, i int) error {
	return &indexedErr{msg: msg, i: i}
}

type indexedErr struct {
	msg string
	i   int
}

func (e *indexedErr) Error() string { return e.msg }

// TestSPSCAbort: both sides must return promptly when the abort channel
// closes while they are parked.
func TestSPSCAbort(t *testing.T) {
	abort := make(chan struct{})
	full := NewSPSC[int](1)
	full.TryPush(1)
	empty := NewSPSC[int](1)

	var wg sync.WaitGroup
	wg.Add(2)
	results := make(chan bool, 2)
	go func() { defer wg.Done(); results <- full.Push(2, abort) }()
	go func() { defer wg.Done(); _, ok := empty.Pop(abort); results <- ok }()
	time.Sleep(10 * time.Millisecond) // let both park
	close(abort)
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("parked ring operations did not observe the abort")
	}
	for i := 0; i < 2; i++ {
		if <-results {
			t.Fatal("aborted operation reported success")
		}
	}
}

// TestSPSCCloseWakesConsumer: a consumer parked on an empty ring must
// observe a close without any further push.
func TestSPSCCloseWakesConsumer(t *testing.T) {
	r := NewSPSC[int](4)
	done := make(chan bool, 1)
	go func() {
		_, ok := r.Pop(nil)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	r.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("pop on closed empty ring returned an item")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not wake the parked consumer")
	}
}

// TestGateLostWakeupStress drives a capacity-1 ring, so nearly every
// item crosses a park/wake on one side or the other: the
// Prepare/re-check/Wait protocol must never lose a wake, or the pair
// wedges and the deadline trips.
func TestGateLostWakeupStress(t *testing.T) {
	r := NewSPSC[int](1)
	const n = 100_000
	go func() {
		for i := 0; i < n; i++ {
			r.Push(i, nil)
		}
		r.Close()
	}()
	got := make(chan int, 1)
	go func() {
		c := 0
		for {
			if _, ok := r.Pop(nil); !ok {
				break
			}
			c++
		}
		got <- c
	}()
	select {
	case c := <-got:
		if c != n {
			t.Fatalf("consumed %d items, want %d", c, n)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("lost wakeup: producer/consumer pair wedged")
	}
}
