package inplace

import (
	"reflect"
	"sync"

	"inplace/internal/core"
	"inplace/internal/parallel"
	"inplace/internal/stats"
)

// Planner binds a Plan to an element type and owns everything repeated
// executions of the same shape can share: the engine's list of passes in
// the plan's direction (with their chunk partitions and fixed-point
// divisors), the column-tile geometry and row-shuffle kernel for its
// element size, and a recycled scratch arena sized for the plan.
// Multi-worker passes run on the process-wide persistent worker pool.
// After the first Execute has warmed the arena, subsequent Executes
// perform no heap allocation at all.
//
// A Planner is safe for concurrent use: simultaneous Executes on
// distinct buffers each draw a private scratch state from the arena.
type Planner[T any] struct {
	p   *Plan
	eng *core.Engine[T]
}

// NewPlanner validates the shape and precomputes an execution plan for
// transposing rows×cols arrays of T repeatedly. The variadic opts
// follows TransposeBatch: at most one Options value is honoured.
//
// NewPlanner knows the element type, so it consults the process wisdom
// table (see Tune, LoadWisdom and Options.Tuning): matching wisdom
// resolves every option left at its zero value to the measured-optimal
// choice before the static heuristics fill in the rest.
func NewPlanner[T any](rows, cols int, opts ...Options) (*Planner[T], error) {
	p, err := newPlanElem(rows, cols, optionsOf(opts), int(reflect.TypeFor[T]().Size()))
	if err != nil {
		return nil, err
	}
	return newPlanner[T](p), nil
}

func newPlanner[T any](p *Plan) *Planner[T] {
	return &Planner[T]{p: p, eng: core.NewEngine[T](p.plan, p.opts, p.useC2R)}
}

// Execute transposes data in place according to the plan. data must
// hold Rows()*Cols() elements; afterwards it holds the transposed
// array (cols×rows in the plan's order convention).
//
//xpose:hotpath
func (pl *Planner[T]) Execute(data []T) error {
	if len(data) != pl.p.size {
		return lengthErr(len(data), pl.p.size)
	}
	pl.eng.Run(data)
	return nil
}

// Plan returns the underlying shape plan.
func (pl *Planner[T]) Plan() *Plan { return pl.p }

// Rows returns the logical row count the planner transposes from.
func (pl *Planner[T]) Rows() int { return pl.p.rows }

// Cols returns the logical column count the planner transposes from.
func (pl *Planner[T]) Cols() int { return pl.p.cols }

// String describes the planner.
func (pl *Planner[T]) String() string { return pl.p.String() }

// --- Keyed planner cache ---
//
// Transpose, TransposeWith, TransposeBatch, PermuteAxes, the AoS
// conversions and the raw-byte *Elem functions route through one small
// process-wide cache of planners keyed by shape, options and planner
// type, so ad-hoc callers that transpose or permute the same shape
// repeatedly get the amortized hot path without managing planner
// lifetimes themselves.

// plannerKey identifies one cached planner: a 2D Planner by its shape,
// a PermutePlanner by a hash of its raw dims and perm, which a hit
// re-checks. typ is the planner type, so it names both the kind and
// the element type; Options is a comparable struct of plain ints, so
// the whole key is comparable.
type plannerKey struct {
	rows, cols int
	perm       uint64
	opts       Options
	typ        reflect.Type
}

// plannerCacheCap bounds the cache; beyond it the oldest entries are
// evicted FIFO. Garbage collection ages the scratch arenas as it ages
// a sync.Pool, so an idle cached planner holds no scratch past its
// second collection, and an evicted planner's memory is reclaimed once
// callers drop it.
const plannerCacheCap = 128

var plannerCache struct {
	mu    sync.RWMutex
	m     map[plannerKey]any
	order []plannerKey
}

// Cache counters, registered on the process-wide stats registry (the
// same surface the out-of-core engine meters with) so exporters like
// the xposed /stats endpoint enumerate them without knowing this
// package. Read-only outside the package via PlannerCacheStats; atomic
// because hits are recorded under the read lock.
var (
	cacheHits      = stats.Default().Counter("planner_cache_hits")
	cacheMisses    = stats.Default().Counter("planner_cache_misses")
	cacheEvictions = stats.Default().Counter("planner_cache_evictions")
)

// CacheStats is a snapshot of the planner cache counters.
type CacheStats struct {
	// Hits counts lookups served by a cached planner.
	Hits uint64
	// Misses counts lookups that had to build a planner.
	Misses uint64
	// Evictions counts entries dropped under capacity pressure. Flushes
	// (wisdom mutations) are not evictions.
	Evictions uint64
}

// PlannerCacheStats returns a snapshot of the process planner cache
// counters: how the cached fast path of Transpose, TransposeWith,
// TransposeBatch, PermuteAxes, the AoS conversions and the *Elem
// functions is behaving. 2D and permutation lookups share the one
// cache and its counters. Counters are cumulative for the process;
// compute deltas to meter a workload.
func PlannerCacheStats() CacheStats {
	return CacheStats{
		Hits:      cacheHits.Load(),
		Misses:    cacheMisses.Load(),
		Evictions: cacheEvictions.Load(),
	}
}

// flushPlannerCache drops every cached planner — 2D and permutation
// alike. Called when the wisdom table changes, since cached planners
// embed decisions resolved against the old wisdom. Flushed entries do
// not count as evictions.
func flushPlannerCache() {
	plannerCache.mu.Lock()
	plannerCache.m = nil
	plannerCache.order = nil
	plannerCache.mu.Unlock()
}

// plannerFor returns the cached planner for (rows, cols, o, T),
// building and inserting it on first use.
func plannerFor[T any](rows, cols int, o Options) (*Planner[T], error) {
	return cachedPlanner(plannerKey{rows: rows, cols: cols, opts: o},
		func(*Planner[T]) bool { return true },
		func() (*Planner[T], error) { return NewPlanner[T](rows, cols, o) })
}

// cachedPlanner returns the planner of type P cached under key, or
// builds one with build and publishes it. same re-checks a cached
// planner against the request, so a key that only hashes part of it
// can collide without serving a wrong plan: a planner same rejects is a
// miss, and the fresh planner takes its place.
func cachedPlanner[P any](key plannerKey, same func(P) bool, build func() (P, error)) (P, error) {
	key.typ = reflect.TypeFor[P]()
	plannerCache.mu.RLock()
	v := plannerCache.m[key]
	plannerCache.mu.RUnlock()
	if pl, ok := v.(P); ok && same(pl) {
		cacheHits.Inc()
		return pl, nil
	}
	cacheMisses.Inc()
	pl, err := build()
	if err != nil {
		return pl, err
	}
	plannerCache.mu.Lock()
	defer plannerCache.mu.Unlock()
	if v, ok := plannerCache.m[key]; ok {
		if old, ok := v.(P); ok && same(old) {
			// Another goroutine built the same planner concurrently;
			// keep the published one so all callers share its arena.
			return old, nil
		}
		plannerCache.m[key] = pl // a collision: the fresh planner takes the slot
		return pl, nil
	}
	if plannerCache.m == nil {
		plannerCache.m = make(map[plannerKey]any)
	}
	for len(plannerCache.order) >= plannerCacheCap {
		delete(plannerCache.m, plannerCache.order[0])
		plannerCache.order = plannerCache.order[1:]
		cacheEvictions.Inc()
	}
	plannerCache.m[key] = pl
	plannerCache.order = append(plannerCache.order, key)
	return pl, nil
}

// forSlabs transposes count back-to-back slabs of pl's shape held in
// data: inline when count or the resolved worker count is 1, and
// otherwise spread over the shared pool. pl runs each slab on one
// worker (or count is 1), so pool dispatches never nest. The caller has
// checked len(data) = count·pl's size.
func forSlabs[T any](pl *Planner[T], data []T, count, workers int) {
	stride := pl.p.size
	if count == 1 || parallel.Workers(workers) == 1 {
		for k := range count {
			pl.eng.Run(data[k*stride : (k+1)*stride])
		}
		return
	}
	parallel.Shared().For(count, workers, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			pl.eng.Run(data[k*stride : (k+1)*stride])
		}
	})
}

// optionsOf resolves the variadic Options of the entry points that take
// one: at most one value is honoured.
func optionsOf(opts []Options) Options {
	if len(opts) > 0 {
		return opts[0]
	}
	return Options{}
}
