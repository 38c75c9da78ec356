package core

import (
	"inplace/internal/cr"
	"inplace/internal/parallel"
)

// Opts configures an engine invocation.
type Opts struct {
	// Workers is the number of goroutines to use; 0 means GOMAXPROCS.
	Workers int
	// BlockW is the tile width, in columns, of the tiled column passes,
	// or the side of a square plan's swap tiles; 0 derives it from the
	// shape and element size (see TileWidth).
	BlockW int
	// Pool, when non-nil, dispatches parallel chunks onto a persistent
	// worker pool instead of spawning goroutines per pass. Engines never
	// nest dispatches, as the pool requires.
	Pool *parallel.Pool
}

// DefaultBlockW is the sub-row width of the reproduction coarse/fine
// kernels behind the Pass* entry points and the ablation benchmarks:
// eight elements span a 64-byte cache line of 64-bit values.
const DefaultBlockW = 8

// C2R performs the in-place C2R transposition of the flat row-major
// m×n array described by plan: afterwards data holds the row-major n×m
// transpose (Theorem 1). len(data) must equal plan.M*plan.N.
//
// One-shot form: builds a Schedule and Engine per call. Callers that
// transpose repeatedly should hold an Engine (via the public Planner)
// and amortize that work instead.
func C2R[T any](data []T, plan *cr.Plan, o Opts) {
	NewEngine[T](NewSchedule(plan, o)).C2R(data)
}

// R2C performs the in-place R2C transposition, the exact inverse of C2R:
// if data holds a row-major n×m array, R2C with an m×n plan leaves data
// holding the row-major m×n transpose.
func R2C[T any](data []T, plan *cr.Plan, o Opts) {
	NewEngine[T](NewSchedule(plan, o)).R2C(data)
}
