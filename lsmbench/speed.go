package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared, and their speed
// drifts by up to ±20% over minutes. Each run times a fixed reference
// task once, before it measures, and reports that time (summary line,
// bench.ref_s), so that a slow run can be told from a slow program. The
// times are not scaled by it: on the same runs, scaling lowered the
// spread of characterize's wall time but raised generate's.

// refBufs holds each CPU's working set of the reference task. It is
// allocated and touched once, so that the task's time does not depend
// on the state of the Go heap.
var refBufs [][]uint64

// refTask fills, hashes into a table and sorts a pseudo-random array on
// every CPU at once, and returns its wall time in seconds.
func refTask() float64 {
	if refBufs == nil {
		for c := 0; c < runtime.NumCPU(); c++ {
			refBufs = append(refBufs, make([]uint64, 1<<21+1<<16))
		}
		refTask() // first touch of the buffers
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range refBufs {
		wg.Add(1)
		go func(buf []uint64) {
			defer wg.Done()
			s, table := buf[:1<<21], buf[1<<21:]
			x := uint64(88172645463325252)
			for i := range s {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				s[i] = x
				table[x&(1<<16-1)] += x
			}
			slices.Sort(s)
		}(refBufs[c])
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}
