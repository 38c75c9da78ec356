package parallel

import (
	"sync"
)

// Pool is a persistent set of worker goroutines for the chunked
// parallel-for primitive. Spawning a goroutine per chunk per call is
// cheap for one large transposition but dominates the hot path when a
// reused plan transposes small or skinny arrays at high rates; a Pool
// parks its workers on a channel between calls so repeated executions
// amortize the spawn cost to zero.
//
// Bodies dispatched onto a Pool must not themselves dispatch onto the
// same Pool: tasks are drained only by the parked workers, so nested
// dispatch can deadlock. The engines never nest — passes run one after
// another and batch inner loops run sequentially.
type Pool struct {
	workers int
	tasks   chan poolTask

	closeOnce sync.Once
}

type poolTask struct {
	body           func(worker, lo, hi int)
	worker, lo, hi int
	wg             *sync.WaitGroup
}

// NewPool starts a pool of Workers(workers) parked goroutines.
func NewPool(workers int) *Pool {
	workers = Workers(workers)
	p := &Pool{
		workers: workers,
		// Oversized buffer: ForBounds dispatches at most Workers(w)
		// chunks per call, and concurrent callers that overflow the
		// buffer run their chunks inline instead of blocking.
		//xpose:allow indexoverflow -- workers is clamped to GOMAXPROCS by Workers
		tasks: make(chan poolTask, 4*workers),
	}
	for i := 0; i < workers; i++ {
		go p.run()
	}
	return p
}

// Workers returns the number of goroutines the pool parks.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) run() {
	for t := range p.tasks {
		t.body(t.worker, t.lo, t.hi)
		t.wg.Done()
	}
}

// waitGroups recycles the WaitGroups of ForBounds calls: the workers
// hold a call's WaitGroup, so it lives on the heap, and a recycled one
// keeps a warm dispatch of a prebuilt body free of allocation. A
// WaitGroup is back at zero once Wait returns, ready for reuse.
var waitGroups = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// ForBounds invokes body(worker, lo, hi) for each chunk of a Bounds
// partition, like the package-level ForBounds, but on the pool's parked
// workers instead of freshly spawned goroutines. The calling goroutine
// runs the first chunk itself, and runs any chunk that does not fit the
// dispatch buffer inline, so a call always makes progress regardless of
// pool load. With a single chunk the body runs on the calling goroutine
// with no synchronization at all.
func (p *Pool) ForBounds(bounds []int, body func(worker, lo, hi int)) {
	nchunks := len(bounds) - 1
	if nchunks <= 0 || bounds[nchunks] == bounds[0] {
		return
	}
	if nchunks == 1 {
		body(0, bounds[0], bounds[1])
		return
	}
	wg := waitGroups.Get().(*sync.WaitGroup)
	wg.Add(nchunks - 1)
	for w := 1; w < nchunks; w++ {
		t := poolTask{body: body, worker: w, lo: bounds[w], hi: bounds[w+1], wg: wg}
		select {
		case p.tasks <- t:
		default:
			t.body(t.worker, t.lo, t.hi)
			wg.Done()
		}
	}
	body(0, bounds[0], bounds[1])
	wg.Wait()
	waitGroups.Put(wg)
}

// For divides [0, n) across at most `workers` chunks and runs them on the
// pool, blocking until all complete.
func (p *Pool) For(n, workers int, body func(worker, lo, hi int)) {
	p.ForBounds(Bounds(n, workers), body)
}

// Close terminates the pool's workers. Dispatching after Close panics.
// Close is idempotent and must not race with ForBounds calls.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.tasks) })
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide persistent pool, sized to GOMAXPROCS
// and started on first use. It is never closed: idle workers are parked
// on a channel receive and cost nothing. The plan-reuse execution path
// and the batch layer dispatch through it so that every transposition in
// the process amortizes goroutine spawn against the same worker set.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = NewPool(0) })
	return sharedPool
}
