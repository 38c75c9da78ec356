// Package tune is the calibrating autotuner of the transposition
// library: for one shape / element size / worker budget it times the
// real candidate space — pass pipeline (scatter, gather, cache-aware)
// vs. the skinny banded specialization, C2R vs. R2C direction, worker
// counts and cache-aware sub-row granularities — on short repeatable
// measurement runs with outlier-robust statistics, and records the
// winner in a versioned wisdom table (wisdom.go) that the public
// Planner consults before falling back to the paper's static
// heuristics.
//
// The search is staged rather than exhaustive, the FFTW-wisdom pattern
// scaled to this candidate space: stage 1 races every (direction,
// pipeline) pair at the full worker budget, stage 2 sweeps the worker
// ladder for the winning pipeline, and stage 3 sweeps the cache-aware
// tile width when the winner uses one. Each candidate is measured as
// the median of several samples, each sample batched to a minimum wall
// time, so scheduler noise and one-off cache effects do not promote a
// loser.
package tune

import (
	"errors"
	"fmt"
	"time"
	"unsafe"

	"inplace/internal/core"
	"inplace/internal/cr"
	"inplace/internal/mathutil"
	"inplace/internal/parallel"
	"inplace/internal/stats"
)

// Candidate is one point of the search space.
type Candidate struct {
	C2R     bool         // pipeline direction
	Variant core.Variant // pass structure
	Workers int          // goroutines
	BlockW  int          // cache-aware tile width, 0 = derived
}

func (c Candidate) String() string {
	dir := "R2C"
	if c.C2R {
		dir = "C2R"
	}
	return fmt.Sprintf("%s/%v/w%d/b%d", dir, c.Variant, c.Workers, c.BlockW)
}

// Config bounds a tuning run. The zero value gets sensible defaults; a
// smoke configuration (Smoke) caps every knob for CI.
type Config struct {
	// MaxWorkers is the worker budget; 0 means GOMAXPROCS. The budget is
	// part of the wisdom key.
	MaxWorkers int
	// Reps is the number of timed samples per candidate (median taken);
	// 0 means 5.
	Reps int
	// MinSample is the minimum wall time of one sample: runs are batched
	// until a sample takes at least this long, so timer granularity and
	// per-call jitter amortize away. 0 means 1ms.
	MinSample time.Duration
	// MaxCandidate caps the total measurement time of one candidate;
	// remaining reps are dropped (the median is taken over what was
	// collected). 0 means 80ms.
	MaxCandidate time.Duration
	// BlockWidths is the stage-3 sweep of tile widths for cache-aware
	// winners; 0 entries mean the derived width. nil means {0, 16, 32}.
	BlockWidths []int
	// Cost, when non-nil, replaces wall-clock measurement with a
	// deterministic ns/op estimate. Tests use it to force decisions (for
	// example, a shape where measurement and heuristic disagree) without
	// depending on host timing.
	Cost func(Candidate) float64
}

func (c Config) withDefaults() Config {
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.MinSample <= 0 {
		c.MinSample = time.Millisecond
	}
	if c.MaxCandidate <= 0 {
		c.MaxCandidate = 80 * time.Millisecond
	}
	if c.BlockWidths == nil {
		c.BlockWidths = []int{0, 16, 32}
	}
	return c
}

// Smoke returns a configuration with every knob capped for fast CI
// smoke runs: single rep, microsecond-scale samples, tight per-candidate
// budget. Decisions from a smoke run are noisy by construction; the
// point is exercising the full tuner code path cheaply.
func Smoke() Config {
	return Config{
		Reps:         1,
		MinSample:    50 * time.Microsecond,
		MaxCandidate: 2 * time.Millisecond,
		BlockWidths:  []int{0},
	}
}

// HeuristicCandidate returns the choice the static planner heuristic
// would make for the shape under the given budget: the cache-aware
// pipeline in the direction with the shorter internal columns, all
// workers, derived tile width. The tuner seeds its search with it so
// a tuned process can never regress below the heuristic by more than
// measurement noise — if nothing beats it, it wins.
func HeuristicCandidate(rows, cols, maxWorkers int) Candidate {
	return Candidate{
		C2R:     rows <= cols,
		Variant: core.CacheAware,
		Workers: parallel.Workers(maxWorkers),
	}
}

// ErrShape reports non-positive tuning dimensions.
var ErrShape = errors.New("tune: rows and cols must be positive")

// ErrOverflow reports tuning dimensions whose product rows*cols does
// not fit in int.
var ErrOverflow = errors.New("tune: rows*cols overflows int")

// TuneFor measures the candidate space for transposing rows×cols
// matrices of T and returns the winning decision. It allocates one
// rows*cols buffer of T for the duration of the call.
func TuneFor[T any](rows, cols int, cfg Config) (Decision, error) {
	if rows <= 0 || cols <= 0 {
		return Decision{}, fmt.Errorf("%w (got %dx%d)", ErrShape, rows, cols)
	}
	size, ok := mathutil.CheckedMul(rows, cols)
	if !ok {
		return Decision{}, fmt.Errorf("%w (got %dx%d)", ErrOverflow, rows, cols)
	}
	cfg = cfg.withDefaults()
	budget := parallel.Workers(cfg.MaxWorkers)

	m := &measurer[T]{
		rows: rows,
		cols: cols,
		cfg:  cfg,
		// The two directions transpose through mutually-inverse plans of
		// swapped shapes; both are built once and shared by every
		// candidate.
		planC2R: cr.NewPlan(rows, cols),
		planR2C: cr.NewPlan(cols, rows),
		costs:   make(map[Candidate]float64),
	}
	if cfg.Cost == nil {
		m.data = make([]T, size)
	}

	// Stage 1: direction × pipeline at full budget. The heuristic's own
	// choice is always in this set.
	best := HeuristicCandidate(rows, cols, budget)
	bestCost := m.cost(best)
	for _, c2r := range []bool{true, false} {
		plan := m.plan(c2r)
		for _, v := range core.Variants() {
			if v == core.Skinny && !core.SkinnyViable(plan) {
				continue // engine would silently run cache-aware: not distinct
			}
			cand := Candidate{C2R: c2r, Variant: v, Workers: budget}
			if cost := m.cost(cand); cost < bestCost {
				best, bestCost = cand, cost
			}
		}
	}

	// Stage 2: worker ladder for the winning pipeline — powers of two up
	// to the budget, plus the budget itself.
	for w := 1; w <= budget; w *= 2 {
		cand := best
		cand.Workers = w
		if cost := m.cost(cand); cost < bestCost {
			best, bestCost = cand, cost
		}
	}
	{
		cand := best
		cand.Workers = budget
		if cost := m.cost(cand); cost < bestCost {
			best, bestCost = cand, cost
		}
	}

	// Stage 3: cache-aware tile width. Only the cache-aware pipeline
	// consumes it (the skinny permute spans whole rows, scatter/gather
	// use no tiling).
	if best.Variant == core.CacheAware {
		for _, bw := range cfg.BlockWidths {
			cand := best
			cand.BlockW = bw
			if cost := m.cost(cand); cost < bestCost {
				best, bestCost = cand, cost
			}
		}
	}

	var elem T
	d := Decision{
		Variant: best.Variant.String(),
		C2R:     best.C2R,
		Workers: best.Workers,
		BlockW:  best.BlockW,
	}
	if bestCost > 0 {
		bytes := 2 * float64(rows) * float64(cols) * float64(unsafe.Sizeof(elem))
		d.GBps = bytes / bestCost // ns/op and GB/s share the 1e9 factor
	}
	return d, nil
}

// measurer times candidates for one shape, memoizing by candidate so
// the staged search never measures the same point twice.
type measurer[T any] struct {
	rows, cols int
	cfg        Config
	data       []T
	planC2R    *cr.Plan
	planR2C    *cr.Plan
	costs      map[Candidate]float64
}

func (m *measurer[T]) plan(c2r bool) *cr.Plan {
	if c2r {
		return m.planC2R
	}
	return m.planR2C
}

// cost returns the candidate's cost in ns per transposition (median of
// the configured samples), or the injected estimate.
func (m *measurer[T]) cost(c Candidate) float64 {
	if v, ok := m.costs[c]; ok {
		return v
	}
	var v float64
	if m.cfg.Cost != nil {
		v = m.cfg.Cost(c)
	} else {
		v = m.measure(c)
	}
	m.costs[c] = v
	return v
}

func (m *measurer[T]) measure(c Candidate) float64 {
	opts := core.Opts{Workers: c.Workers, Variant: c.Variant, BlockW: c.BlockW}
	if parallel.Workers(c.Workers) > 1 {
		opts.Pool = parallel.Shared()
	}
	eng := core.NewEngine[T](core.NewSchedule(m.plan(c.C2R), opts))
	run := func() {
		// The pipelines are data-independent permutations, so timing does
		// not care that successive runs keep permuting the buffer.
		if c.C2R {
			eng.C2R(m.data)
		} else {
			eng.R2C(m.data)
		}
	}
	run() // warm the scratch arena and the lazy cycle decomposition

	samples := Measure(run, MeasureOpts{
		Reps:      m.cfg.Reps,
		MinSample: m.cfg.MinSample,
		MaxTotal:  m.cfg.MaxCandidate,
	})
	return stats.Median(samples)
}
