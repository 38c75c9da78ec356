package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolForBoundsCoversRangeExactlyOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{0, 1, 5, 64, 1000} {
		for _, w := range []int{1, 3, 8, 0} {
			hits := make([]int32, n)
			p.ForBounds(Bounds(n, w), func(worker, lo, hi int) {
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

func TestPoolMatchesSpawningForBounds(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	n := 100000
	var pooled, spawned int64
	bounds := Bounds(n, 8)
	p.ForBounds(bounds, func(worker, lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += int64(i)
		}
		atomic.AddInt64(&pooled, local)
	})
	ForBounds(bounds, func(worker, lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += int64(i)
		}
		atomic.AddInt64(&spawned, local)
	})
	if pooled != spawned {
		t.Fatalf("pooled sum %d != spawned sum %d", pooled, spawned)
	}
}

func TestPoolSingleChunkRunsOnCaller(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	ran := false
	p.ForBounds([]int{0, 10}, func(worker, lo, hi int) {
		if worker != 0 || lo != 0 || hi != 10 {
			t.Errorf("single chunk got worker=%d [%d,%d)", worker, lo, hi)
		}
		ran = true
	})
	if !ran {
		t.Fatal("body never ran")
	}
	p.ForBounds([]int{0, 0}, func(worker, lo, hi int) {
		t.Error("body ran for empty bounds")
	})
}

// Many goroutines dispatching onto one pool concurrently: chunks may
// overflow the dispatch buffer and run inline, but every index must still
// be covered exactly once per call.
func TestPoolConcurrentCallers(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				n := 999
				var total int64
				p.ForBounds(Bounds(n, 8), func(worker, lo, hi int) {
					var local int64
					for i := lo; i < hi; i++ {
						local += int64(i)
					}
					atomic.AddInt64(&total, local)
				})
				if want := int64(n) * int64(n-1) / 2; total != want {
					t.Errorf("total = %d, want %d", total, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPoolWorkerIndicesWithinFrameRange(t *testing.T) {
	// Chunk indices double as scratch-frame indices in the engines, so
	// they must stay below the chunk count of the bounds partition.
	p := NewPool(4)
	defer p.Close()
	bounds := Bounds(100, 4)
	nchunks := len(bounds) - 1
	seen := make([]int32, nchunks)
	p.ForBounds(bounds, func(worker, lo, hi int) {
		if worker < 0 || worker >= nchunks {
			t.Errorf("worker index %d outside [0,%d)", worker, nchunks)
			return
		}
		atomic.AddInt32(&seen[worker], 1)
	})
	for w, c := range seen {
		if c != 1 {
			t.Fatalf("worker index %d used %d times", w, c)
		}
	}
}

func TestSharedPoolSingleton(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared() returned distinct pools")
	}
	var total int64
	Shared().ForBounds(Bounds(1000, 0), func(worker, lo, hi int) {
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if total != 1000 {
		t.Fatalf("shared pool covered %d of 1000", total)
	}
}
