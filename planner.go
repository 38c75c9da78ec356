package inplace

import (
	"reflect"
	"sync"

	"inplace/internal/core"
	"inplace/internal/parallel"
	"inplace/internal/stats"
)

// Planner binds a Plan to an element type and owns everything repeated
// executions of the same shape can share: the precomputed pass schedule
// (chunk partitions, rotation closures, fixed-point divisors), the
// column-tile geometry for its element size, the lazily-built cycle
// decomposition of the skinny pipeline's row permutation q, a
// recycled scratch arena sized for the plan, and — for multi-worker
// plans — the process-wide persistent worker pool. After the first
// Execute has warmed the arena, subsequent Executes perform no heap
// allocation at all.
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
	o := Options{}
	if len(opts) > 0 {
		o = opts[0]
	}
	p, err := newPlanElem(rows, cols, o, int(reflect.TypeFor[T]().Size()))
	if err != nil {
		return nil, err
	}
	return newPlanner[T](p), nil
}

func newPlanner[T any](p *Plan) *Planner[T] {
	op := p.opts
	if parallel.Workers(op.Workers) > 1 {
		// Multi-worker plans dispatch passes onto the persistent
		// process-wide pool instead of spawning goroutines per pass.
		op.Pool = parallel.Shared()
	}
	return &Planner[T]{p: p, eng: core.NewEngine[T](core.NewSchedule(p.plan, op))}
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
	if pl.p.useC2R {
		pl.eng.C2R(data)
	} else {
		pl.eng.R2C(data)
	}
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
// Transpose, TransposeWith and TransposeBatch route through a small
// process-wide cache of planners keyed by shape, options and element
// type, so ad-hoc callers that transpose the same shape repeatedly get
// the amortized hot path without managing Planner lifetimes themselves.

// plannerKey identifies one cached planner. Options is a comparable
// struct of plain ints, so the whole key is comparable.
type plannerKey struct {
	rows, cols int
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
// counters: how the Transpose/TransposeWith/TransposeBatch fast path is
// behaving. Counters are cumulative for the process; compute deltas to
// meter a workload.
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
	flushPermCache()
}

// plannerFor returns the cached planner for (rows, cols, o, T),
// building and inserting it on first use.
func plannerFor[T any](rows, cols int, o Options) (*Planner[T], error) {
	key := plannerKey{rows: rows, cols: cols, opts: o, typ: reflect.TypeFor[T]()}
	plannerCache.mu.RLock()
	v, ok := plannerCache.m[key]
	plannerCache.mu.RUnlock()
	if ok {
		cacheHits.Inc()
		return v.(*Planner[T]), nil
	}
	cacheMisses.Inc()
	pl, err := NewPlanner[T](rows, cols, o)
	if err != nil {
		return nil, err
	}
	plannerCache.mu.Lock()
	defer plannerCache.mu.Unlock()
	if v, ok := plannerCache.m[key]; ok {
		// Another goroutine built the same planner concurrently; keep
		// the published one so all callers share its arena.
		return v.(*Planner[T]), nil
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
