// Package parallel provides the chunked parallel-for primitive used to
// distribute the decomposition's independent row and column permutations
// across goroutines. Because every row (and every column) permutation of
// the decomposed transpose is independent with identical cost, a static
// contiguous partition gives the perfect load balance the paper notes.
package parallel

import (
	"runtime"
	"sync"
)

// Workers returns the effective worker count: w if positive, otherwise
// GOMAXPROCS.
func Workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// Bounds partitions [0, n) into at most `workers` contiguous chunks of
// ⌈n/workers⌉ items, the last possibly shorter but never empty, and
// returns the boundaries as lo offsets terminated by n, so chunk k is
// [bounds[k], bounds[k+1]). An empty range yields the one chunk [0, 0].
func Bounds(n, workers int) []int {
	if n <= 0 {
		return []int{0, 0}
	}
	workers = min(Workers(workers), n)
	if workers <= 1 {
		return []int{0, n}
	}
	chunk := (n + workers - 1) / workers
	bounds := make([]int, 0, workers+1)
	for lo := 0; lo < n; lo += chunk {
		bounds = append(bounds, lo)
	}
	return append(bounds, n)
}

// ForBounds invokes body(worker, lo, hi) concurrently for each chunk of a
// Bounds partition and blocks until all complete. With a single chunk the
// body runs on the calling goroutine, keeping sequential benchmarks free
// of scheduling noise.
func ForBounds(bounds []int, body func(worker, lo, hi int)) {
	nchunks := len(bounds) - 1
	if nchunks <= 0 || bounds[nchunks] == bounds[0] {
		return
	}
	if nchunks == 1 {
		body(0, bounds[0], bounds[1])
		return
	}
	var wg sync.WaitGroup
	wg.Add(nchunks)
	for w := 0; w < nchunks; w++ {
		go func(w int) {
			defer wg.Done()
			body(w, bounds[w], bounds[w+1])
		}(w)
	}
	wg.Wait()
}

// For divides [0, n) across at most `workers` goroutines and invokes
// body(worker, lo, hi) per chunk, blocking until all complete.
func For(n, workers int, body func(worker, lo, hi int)) {
	ForBounds(Bounds(n, workers), body)
}
