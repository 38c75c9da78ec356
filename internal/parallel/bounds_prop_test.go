package parallel

import (
	"math/rand"
	"testing"
)

// checkBoundsInvariants asserts the full Bounds contract for one input:
//
//  1. The partition is contiguous and covers exactly [0, n) (or is the
//     empty [0, 0] partition for n <= 0).
//  2. Every chunk is non-empty.
//  3. The chunk count never exceeds the resolved worker count: the
//     engines index per-worker scratch frames by chunk number, so a
//     partition with more chunks than workers would read out of range.
func checkBoundsInvariants(t *testing.T, n, workers int) {
	t.Helper()
	bounds := Bounds(n, workers)
	if len(bounds) < 2 {
		t.Fatalf("Bounds(%d, %d) = %v: want at least one chunk", n, workers, bounds)
	}
	if bounds[0] != 0 {
		t.Fatalf("Bounds(%d, %d) = %v: does not start at 0", n, workers, bounds)
	}
	if n <= 0 {
		if len(bounds) != 2 || bounds[1] != 0 {
			t.Fatalf("Bounds(%d, %d) = %v: want [0 0]", n, workers, bounds)
		}
		return
	}
	if last := bounds[len(bounds)-1]; last != n {
		t.Fatalf("Bounds(%d, %d) = %v: does not end at n", n, workers, bounds)
	}
	nchunks := len(bounds) - 1
	for k := 0; k < nchunks; k++ {
		if bounds[k+1]-bounds[k] <= 0 {
			t.Fatalf("Bounds(%d, %d) = %v: empty chunk %d", n, workers, bounds, k)
		}
	}
	if nchunks > Workers(workers) {
		t.Fatalf("Bounds(%d, %d) = %v: %d chunks exceed %d workers",
			n, workers, bounds, nchunks, Workers(workers))
	}
}

func TestBoundsEdgeCases(t *testing.T) {
	cases := []struct{ n, workers int }{
		{0, 4},       // empty range
		{0, 0},       // empty range, defaulted workers
		{-3, 4},      // negative range
		{10, 100},    // workers > n: clamped
		{10, 3},      // a shorter last chunk
		{1, 1},       // singleton
		{1, 64},      // singleton, many workers
		{7, 7},       // one item per worker
		{8, 7},       // one spare item
		{1 << 20, 0}, // GOMAXPROCS workers
	}
	for _, c := range cases {
		checkBoundsInvariants(t, c.n, c.workers)
	}
}

func TestBoundsPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for iter := 0; iter < 20000; iter++ {
		n := rng.Intn(1 << 14)
		if iter%7 == 0 {
			n = rng.Intn(4) // stress tiny ranges
		}
		workers := rng.Intn(66) - 1 // includes -1 and 0 (defaulted)
		checkBoundsInvariants(t, n, workers)
	}
}
