package linalg

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerOverride, when > 0, fixes the worker count (tests use it to
// prove bit-identical results across pool sizes). 0 means GOMAXPROCS.
var workerOverride atomic.Int32

// SetWorkers overrides the number of goroutines ParallelRows fans out
// to; n <= 0 restores the GOMAXPROCS default. It returns the previous
// override so tests can defer-restore.
func SetWorkers(n int) int {
	prev := int(workerOverride.Load())
	if n < 0 {
		n = 0
	}
	workerOverride.Store(int32(n))
	return prev
}

// Workers reports the current fan-out width.
func Workers() int {
	if n := int(workerOverride.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// parallelThreshold is the row count below which ParallelRows stays
// serial — goroutine handoff costs more than the work it would split.
const parallelThreshold = 64

// ParallelRows splits [0, n) into one contiguous range per worker and
// runs fn on each concurrently, blocking until all complete. fn must
// write only to row-indexed state inside its range; under that contract
// the result is bit-identical for any worker count, because every row is
// produced by the same serial code regardless of how ranges are drawn.
//
// Reductions must NOT accumulate across fn calls in completion order:
// a parallel reduction writes one partial per fixed shard and sums the
// partials serially in shard order.
func ParallelRows(n int, fn func(lo, hi int)) {
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 || n < parallelThreshold {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	// The caller takes the first range itself; only the others cost a
	// goroutine.
	for lo := chunk; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	fn(0, chunk)
	wg.Wait()
}
