package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(4) != 4 {
		t.Fatal("Workers(4) != 4")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Fatal("Workers(0) != GOMAXPROCS")
	}
	if Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Fatal("Workers(-3) != GOMAXPROCS")
	}
}

func checkBounds(t *testing.T, bounds []int, n int) {
	t.Helper()
	if bounds[0] != 0 || bounds[len(bounds)-1] != n {
		t.Fatalf("bounds %v do not span [0,%d)", bounds, n)
	}
	for k := 0; k+1 < len(bounds); k++ {
		if bounds[k+1]-bounds[k] <= 0 {
			t.Fatalf("bounds %v contain empty chunk", bounds)
		}
	}
}

func TestBoundsProperties(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 16, 100, 101, 1000} {
		for _, w := range []int{1, 2, 3, 4, 7, 8, 16, 0} {
			bounds := Bounds(n, w)
			if n == 0 {
				if len(bounds) != 2 || bounds[0] != 0 || bounds[1] != 0 {
					t.Fatalf("Bounds(0,...) = %v", bounds)
				}
				continue
			}
			checkBounds(t, bounds, n)
			if got, max := len(bounds)-1, Workers(w); got > max {
				t.Fatalf("Bounds(%d,%d) = %v has %d chunks, worker cap %d", n, w, bounds, got, max)
			}
		}
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000} {
		for _, w := range []int{1, 3, 8, 0} {
			hits := make([]int32, n)
			For(n, w, func(worker, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d hit %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestForWorkerIndicesDistinct(t *testing.T) {
	seen := make(map[int]bool)
	var n int32
	For(100, 4, func(worker, lo, hi int) {
		atomic.AddInt32(&n, 1)
		_ = worker
	})
	For(100, 1, func(worker, lo, hi int) {
		if worker != 0 {
			t.Errorf("single worker index = %d", worker)
		}
		if lo != 0 || hi != 100 {
			t.Errorf("single worker range = [%d,%d)", lo, hi)
		}
		seen[worker] = true
	})
	if !seen[0] {
		t.Fatal("body never ran")
	}
}

func TestForBoundsParallelSum(t *testing.T) {
	n := 100000
	var total int64
	ForBounds(Bounds(n, 8), func(worker, lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += int64(i)
		}
		atomic.AddInt64(&total, local)
	})
	want := int64(n) * int64(n-1) / 2
	if total != want {
		t.Fatalf("parallel sum = %d, want %d", total, want)
	}
}

func TestForEmpty(t *testing.T) {
	ran := false
	For(0, 4, func(worker, lo, hi int) { ran = true })
	if ran {
		t.Fatal("body ran for empty range")
	}
	ForBounds([]int{0, 0}, func(worker, lo, hi int) { ran = true })
	if ran {
		t.Fatal("body ran for empty bounds")
	}
}
