package core

import (
	"fmt"

	"inplace/internal/cr"
	"inplace/internal/parallel"
)

// Variant selects an execution strategy for the in-place transposition
// engines. All variants compute the identical permutation; they differ in
// pass structure and memory access patterns.
type Variant int

const (
	// Scatter is Algorithm 1 verbatim: gather pre-rotation, scatter row
	// shuffle, gather column shuffle.
	Scatter Variant = iota
	// Gather is the gather-only formulation of §4.2/§5.1 using the
	// closed-form inverse d'^{-1}: the parallel CPU implementation.
	Gather
	// CacheAware is the production pipeline: a row shuffle chosen by
	// shape — a rotation, a blocked interleave or a gather through one
	// shared stride table — plus column passes run as one-sweep tiled
	// gathers with the paper's closed-form source rows — at most three
	// sweeps over the matrix, two when gcd(m,n) = 1.
	CacheAware
	// Skinny is the §6.1 specialization for matrices with a very small
	// column count: fused band gathers and whole-row cycle following.
	Skinny
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Scatter:
		return "scatter"
	case Gather:
		return "gather"
	case CacheAware:
		return "cache-aware"
	case Skinny:
		return "skinny"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Variants lists every execution strategy, in declaration order. The
// autotuner iterates this to enumerate its candidate space.
func Variants() []Variant { return []Variant{Scatter, Gather, CacheAware, Skinny} }

// ParseVariant maps a Variant.String() name back to the variant, for
// deserializing wisdom tables and CLI flags.
func ParseVariant(s string) (Variant, bool) {
	for _, v := range Variants() {
		if v.String() == s {
			return v, true
		}
	}
	return 0, false
}

// SkinnyViable reports whether the banded skinny formulation (§6.1)
// applies to plan's shape: the look-ahead bands must be short enough to
// snapshot and the matrix tall enough to amortize them. When it is
// false, an engine with Variant Skinny silently runs the cache-aware
// pipeline, so a tuner should not treat Skinny as a distinct candidate.
func SkinnyViable(p *cr.Plan) bool { return skinnyViable(p) }

// Opts configures an engine invocation.
type Opts struct {
	// Workers is the number of goroutines to use; 0 means GOMAXPROCS.
	Workers int
	// Variant selects the pass structure; the zero value is Scatter
	// (Algorithm 1).
	Variant Variant
	// BlockW is the tile width, in columns, of the cache-aware column
	// passes; 0 derives it from the shape and element size (see
	// TileWidth).
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
