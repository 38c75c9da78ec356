package arena

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

type testFrame struct {
	buf []int
}

func TestPoolRecyclesFrames(t *testing.T) {
	built := 0
	p := NewPool(func() *testFrame {
		built++
		return &testFrame{buf: make([]int, 16)}
	})
	f1 := p.Get()
	if built != 1 {
		t.Fatalf("built = %d after first Get, want 1", built)
	}
	f1.buf[0] = 42
	// Under the race detector sync.Pool deliberately drops a fraction
	// of Puts, so recycling is probabilistic there; retry until a Put
	// survives. Without -race the first round recycles.
	recycled := false
	f := f1
	for i := 0; i < 100 && !recycled; i++ {
		p.Put(f)
		got := p.Get()
		recycled = got == f
		f = got
	}
	if !recycled {
		t.Error("Get after Put never recycled the frame")
	}
	p.Put(f)
}

func TestPoolConcurrentGetPut(t *testing.T) {
	p := NewPool(func() *testFrame { return &testFrame{buf: make([]int, 64)} })
	// Age the Pools throughout, as collections would, so listing and
	// unlisting race with Get and Put.
	stop, aged := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(aged)
		for {
			select {
			case <-stop:
				return
			default:
				agePools()
			}
		}
	}()
	defer func() { close(stop); <-aged }()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f := p.Get()
				for j := range f.buf {
					f.buf[j] = g
				}
				for j := range f.buf {
					if f.buf[j] != g {
						t.Errorf("frame shared between goroutines")
						return
					}
				}
				p.Put(f)
			}
		}(g)
	}
	wg.Wait()
}

func TestPoolZeroAllocSteadyState(t *testing.T) {
	p := NewPool(func() *testFrame { return &testFrame{buf: make([]int, 1024)} })
	// Prime the pool.
	p.Put(p.Get())
	allocs := testing.AllocsPerRun(100, func() {
		f := p.Get()
		f.buf[0]++
		p.Put(f)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f times per run, want 0", allocs)
	}
}

// A sequential caller gets its frame back even when the sync.Pool would
// have lost it: after a garbage collection (which only ages the slot)
// and a GOMAXPROCS change (which strands a P's private pool slot).
func TestPoolKeepsLastFrame(t *testing.T) {
	built := 0
	p := NewPool(func() *testFrame { built++; return &testFrame{buf: make([]int, 8)} })
	f := p.Get()
	p.Put(f)
	runtime.GC()
	prev := runtime.GOMAXPROCS(1)
	g := p.Get()
	runtime.GOMAXPROCS(prev)
	if g != f || built != 1 {
		t.Fatalf("Get after Put returned a new frame (built %d)", built)
	}
	// A second frame, held concurrently with the first, comes from the
	// constructor; returning both keeps them recyclable.
	h := p.Get()
	if h == g || built != 2 {
		t.Fatalf("concurrent Get reused a live frame (built %d)", built)
	}
	p.Put(g)
	p.Put(h)
	if a, b := p.Get(), p.Get(); a == b {
		t.Fatal("two Gets returned the same frame")
	}
}

// collectUntil runs garbage collections until done reports true; the
// Pools age on the finalizer goroutine, after each collection.
func collectUntil(t *testing.T, what string, done func() bool) {
	t.Helper()
	for i := 0; !done(); i++ {
		if i == 200 {
			t.Fatalf("%s: not after %d garbage collections", what, i)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// Garbage collections drop the frame of an idle Pool, and a Pool that
// was listed for aging can itself be collected once dropped.
func TestPoolSlotReleasedByGC(t *testing.T) {
	p := NewPool(func() *testFrame { return &testFrame{buf: make([]int, 8)} })
	f := p.Get()
	freed := make(chan struct{})
	runtime.SetFinalizer(f, func(*testFrame) { close(freed) })
	p.Put(f)
	f = nil
	collectUntil(t, "frame in the slot collected", func() bool {
		select {
		case <-freed:
			return true
		default:
			return false
		}
	})
	if g := p.Get(); g.buf == nil {
		t.Fatal("Get after the frame was dropped returned an unbuilt frame")
	}

	q := NewPool(func() *testFrame { return &testFrame{} })
	q.Put(q.Get())
	dropped := make(chan struct{})
	runtime.SetFinalizer(q, func(*Pool[testFrame]) { close(dropped) })
	q = nil
	collectUntil(t, "listed Pool collected", func() bool {
		select {
		case <-dropped:
			return true
		default:
			return false
		}
	})
}

func TestSlab(t *testing.T) {
	bufs := Slab[int](3, 5)
	if len(bufs) != 3 {
		t.Fatalf("len = %d, want 3", len(bufs))
	}
	for i, b := range bufs {
		if len(b) != 5 {
			t.Fatalf("buf %d len = %d, want 5", i, len(b))
		}
		for j := range b {
			b[j] = i*100 + j
		}
	}
	// Full-capacity slices: appending to one buffer must not clobber the
	// next (the slab is split with three-index slicing).
	bufs[0] = append(bufs[0], -1)
	if bufs[1][0] != 100 {
		t.Error("append to buf 0 clobbered buf 1")
	}
	if got := Slab[int](0, 5); got != nil {
		t.Errorf("Slab(0, 5) = %v, want nil", got)
	}
	if got := Slab[int](2, 0); got != nil {
		t.Errorf("Slab(2, 0) = %v, want nil", got)
	}
}
