// Package tune is the calibrating autotuner of the transposition
// library. It holds the two pieces every tuner shares:
//
//   - the wisdom table (wisdom.go): one map from a Key — problem kind
//     (2D transpose, out-of-core, axis permutation, tile-store ingest),
//     canonical shape, element size and budget — to a small Decision,
//     with one versioned JSON Save/Load. Planners consult a decision
//     only under the budget it was tuned with, before falling back to
//     the paper's static heuristics;
//   - the measurement loop (timing.go): Search warms each candidate
//     once, times it with Measure — the median of several samples, each
//     batched to a minimum wall time, so scheduler noise and one-off
//     cache effects do not promote a loser — and keeps the cheapest.
//
// TuneFor is the 2D tuner. Its search is staged rather than exhaustive,
// the FFTW-wisdom pattern scaled to this candidate space: stage 1 races
// the C2R and R2C directions at the full worker budget, stage 2 sweeps
// the worker ladder for the winning direction, and stage 3 sweeps the
// tile width. The permutation, out-of-core and tile-store tuners live
// in the public package and run the same Search.
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
)

// Candidate is one point of the search space.
type Candidate struct {
	C2R     bool // pipeline direction
	Workers int  // goroutines
	BlockW  int  // tile width, 0 = derived
}

func (c Candidate) String() string {
	dir := "R2C"
	if c.C2R {
		dir = "C2R"
	}
	return fmt.Sprintf("%s/w%d/b%d", dir, c.Workers, c.BlockW)
}

// Config bounds a tuning run. The zero value gets sensible defaults; a
// smoke configuration (Smoke) caps every knob for CI.
type Config struct {
	// MaxWorkers is the worker budget; 0 means GOMAXPROCS. The budget is
	// part of the wisdom key.
	MaxWorkers int
	// MeasureOpts times each candidate: the median of Reps samples, each
	// batched to MinSample, within MaxTotal per candidate.
	MeasureOpts
	// BlockWidths is the stage-3 sweep of tile widths; 0 entries mean
	// the derived width. nil means {0, 16, 32}.
	BlockWidths []int
	// Cost, when non-nil, replaces wall-clock measurement (Search.Cost).
	Cost func(Candidate) float64
}

// Smoke returns a configuration with every knob capped for fast CI
// smoke runs: single rep, microsecond-scale samples, tight per-candidate
// budget. Decisions from a smoke run are noisy by construction; the
// point is exercising the full tuner code path cheaply.
func Smoke() Config {
	return Config{
		MeasureOpts: MeasureOpts{Reps: 1, MinSample: 50 * time.Microsecond, MaxTotal: 2 * time.Millisecond},
		BlockWidths: []int{0},
	}
}

// HeuristicCandidate returns the choice the static planner heuristic
// would make for the shape under the given budget: the direction with
// the shorter internal columns, all workers, derived tile width. The
// tuner seeds its search with it so a tuned process can never regress
// below the heuristic by more than measurement noise — if nothing beats
// it, it wins.
func HeuristicCandidate(rows, cols, maxWorkers int) Candidate {
	return Candidate{C2R: rows <= cols, Workers: parallel.Workers(maxWorkers)}
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
	budget := parallel.Workers(cfg.MaxWorkers)
	blockWidths := cfg.BlockWidths
	if blockWidths == nil {
		blockWidths = []int{0, 16, 32}
	}

	// The two directions transpose through mutually-inverse plans of
	// swapped shapes; both are built once and shared by every candidate.
	plans := map[bool]*cr.Plan{true: cr.NewPlan(rows, cols), false: cr.NewPlan(cols, rows)}
	var data []T
	if cfg.Cost == nil {
		data = make([]T, size)
	}
	s := Search[Candidate]{Opts: cfg.MeasureOpts, Cost: cfg.Cost, Run: func(c Candidate) (func() error, error) {
		opts := core.Opts{Workers: c.Workers, BlockW: c.BlockW}
		if parallel.Workers(c.Workers) > 1 {
			opts.Pool = parallel.Shared()
		}
		eng := core.NewEngine[T](core.NewSchedule(plans[c.C2R], opts))
		// The transpositions are data-independent permutations, so timing
		// does not care that successive runs keep permuting the buffer.
		if c.C2R {
			return func() error { eng.C2R(data); return nil }, nil
		}
		return func() error { eng.R2C(data); return nil }, nil
	}}

	// Stage 1: both directions at full budget, the heuristic's own
	// choice first so that it wins a tie.
	h := HeuristicCandidate(rows, cols, budget)
	s.Try(h)
	h.C2R = !h.C2R
	s.Try(h)

	// Stage 2: worker ladder for the winning direction — powers of two
	// up to the budget, plus the budget itself.
	best, _, _ := s.Best()
	for w := 1; w <= budget; w *= 2 {
		best.Workers = w
		s.Try(best)
	}
	best.Workers = budget
	s.Try(best)

	// Stage 3: tile width.
	best, _, _ = s.Best()
	for _, bw := range blockWidths {
		best.BlockW = bw
		s.Try(best)
	}

	best, ns, err := s.Best()
	if err != nil {
		return Decision{}, err
	}
	d := Decision{Variant: "cache-aware", C2R: best.C2R, Workers: best.Workers, BlockW: best.BlockW}
	if ns > 0 {
		var elem T
		bytes := 2 * float64(rows) * float64(cols) * float64(unsafe.Sizeof(elem))
		d.GBps = bytes / ns // ns/op and GB/s share the 1e9 factor
	}
	return d, nil
}
