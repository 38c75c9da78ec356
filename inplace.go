package inplace

import (
	"errors"
	"fmt"

	"inplace/internal/core"
	"inplace/internal/cr"
	"inplace/internal/mathutil"
	"inplace/internal/tune"
)

// Order identifies the linearization of the array handed to Transpose.
type Order int

const (
	// RowMajor arrays store element (i, j) at offset j + i*cols.
	RowMajor Order = iota
	// ColMajor arrays store element (i, j) at offset i + j*rows. By
	// Theorem 2, transposing a column-major rows×cols array is the same
	// linear permutation as transposing a row-major cols×rows array.
	ColMajor
)

// Options tunes a transposition.
type Options struct {
	// Workers is the number of goroutines; 0 means GOMAXPROCS.
	Workers int
	// Order is the linearization of the input array (default RowMajor).
	Order Order
	// BlockWidth overrides the tile width, in columns, of the tiled
	// column passes, and for a square the side B of the swap sweep's
	// B×B tiles. 0 derives it from the shape and element size: a tile
	// row of at least one 64-byte cache line, four when the rows lie a
	// page or more apart, and a wide tile of at most 16 KiB; for a
	// square, B = 64, halved while a B×B staging tile exceeds 32 KiB.
	BlockWidth int
	// Direction forces the C2R or R2C formulation instead of the
	// shape heuristic. Zero is the heuristic. A square runs the same
	// swap sweep in either direction, so there it changes nothing.
	Direction Direction
	// Tuning controls whether the planner consults the process wisdom
	// table (measured-optimal decisions recorded by Tune or loaded with
	// LoadWisdom) before falling back to the static heuristics. The zero
	// value WisdomAuto consults wisdom; see the Tuning constants.
	Tuning Tuning
	// MaxScratchBytes caps the auxiliary space the PermuteAxes planner
	// may use: when positive and below every factorization's scratch
	// floor — the engine scratch of its worst pass on Workers workers
	// under the direction heuristic (see ScratchBytes) — the planner
	// falls back to the O(1)-space cycle-leader strategy. Zero means
	// unbounded. The 2D paths ignore it — their floor is fixed by the
	// shape.
	MaxScratchBytes int
}

// Tuning selects how the planner uses the process wisdom table.
type Tuning int

const (
	// WisdomAuto consults wisdom for every option left at its zero value
	// (heuristic Direction, Workers 0, BlockWidth 0): matching wisdom
	// fills those in with the measured-optimal choice, anything the
	// caller set explicitly is honoured, and with no matching wisdom the
	// static heuristics apply unchanged. This is the zero value: an
	// untuned process behaves exactly as before.
	WisdomAuto Tuning = iota
	// WisdomOff ignores the wisdom table entirely; the static heuristics
	// decide. Use it to measure the heuristic baseline in a tuned
	// process.
	WisdomOff
	// WisdomRequired fails plan construction with ErrNoWisdom when no
	// wisdom matches, instead of falling back to the heuristics. Use it
	// where an untuned configuration must be caught at startup rather
	// than silently served.
	WisdomRequired
)

// String names the tuning mode.
func (t Tuning) String() string {
	switch t {
	case WisdomAuto:
		return "wisdom-auto"
	case WisdomOff:
		return "wisdom-off"
	case WisdomRequired:
		return "wisdom-required"
	default:
		return fmt.Sprintf("Tuning(%d)", int(t))
	}
}

// Direction optionally forces which of the two mutually-inverse
// permutation pipelines performs the transposition.
type Direction int

const (
	// HeuristicDirection picks the pipeline with the shorter internal
	// columns — C2R when rows <= cols, R2C otherwise — combining the two
	// complementary performance landscapes as §5.2 prescribes.
	HeuristicDirection Direction = iota
	// ForceC2R always uses the C2R pipeline. On a square, whose C2R
	// and R2C are one permutation, both run the one swap sweep.
	ForceC2R
	// ForceR2C always uses the R2C pipeline; on a square, the swap
	// sweep.
	ForceR2C
)

// Plan caches the shape-dependent constants (gcd cofactors, modular
// inverses, fixed-point reciprocals) and the resolved direction, worker
// count and tile width for transposing one shape repeatedly.
type Plan struct {
	rows, cols int
	size       int // rows*cols, proven not to overflow int at plan time
	useC2R     bool
	plan       *cr.Plan // C2R: (rows×cols); R2C: (cols×rows)
	opts       core.Opts
}

// ErrShape reports invalid dimensions.
var ErrShape = errors.New("inplace: rows and cols must be positive")

// ErrLength reports a data slice whose length does not match the plan.
var ErrLength = errors.New("inplace: data length does not match rows*cols")

// ErrOverflow reports dimensions whose product rows*cols does not fit in
// int: no slice can hold such an array, and the index algebra of the
// decomposition would wrap. Every public validation path guards the
// product before any index arithmetic trusts it.
var ErrOverflow = errors.New("inplace: rows*cols overflows int")

// shapeErr, overflowErr and lengthErr build validation errors out of
// line, keeping the fmt machinery off the annotated hot entry points.
func shapeErr(rows, cols int) error {
	return fmt.Errorf("%w (got %dx%d)", ErrShape, rows, cols)
}

func overflowErr(rows, cols int) error {
	return fmt.Errorf("%w (got %dx%d)", ErrOverflow, rows, cols)
}

func lengthErr(got, want int) error {
	return fmt.Errorf("%w (len %d, want %d)", ErrLength, got, want)
}

// checkShape validates a rows×cols shape and returns the element count:
// both dimensions positive and the product representable in int.
func checkShape(rows, cols int) (size int, err error) {
	if rows <= 0 || cols <= 0 {
		return 0, shapeErr(rows, cols)
	}
	size, ok := mathutil.CheckedMul(rows, cols)
	if !ok {
		return 0, overflowErr(rows, cols)
	}
	return size, nil
}

// ErrNoWisdom reports a plan requested with WisdomRequired for a shape
// the process wisdom table has no entry for.
var ErrNoWisdom = errors.New("inplace: no wisdom for shape")

// ErrPerm reports an axis list that is not a permutation of the tensor's
// axes.
var ErrPerm = errors.New("inplace: perm is not a permutation of the axes")

// ErrUnknownMethod reports a permutation strategy name the permutation
// planner does not know: none of greedy, inverse and cycle.
var ErrUnknownMethod = errors.New("inplace: unknown method")

// ErrElemSize reports an element size the size-dispatched functions
// (TransposeElem, PermuteAxesElem, TuneElem and TunePermuteElem)
// cannot handle: only 1, 2, 4 and 8 are wired.
var ErrElemSize = errors.New("inplace: unsupported element size")

// ErrNoTuneResult reports a tuning run with nothing to measure: an
// identity permutation passed to TunePermute.
var ErrNoTuneResult = errors.New("inplace: tuning measured no candidates")

// NewPlan validates the shape and resolves the engine for transposing a
// rows×cols array with the given options.
//
// NewPlan does not know the element size, so it never consults the
// wisdom table (whose decisions are per element size); the typed paths —
// NewPlanner, Transpose, TransposeWith, TransposeBatch, the AoS
// conversions — do.
func NewPlan(rows, cols int, o Options) (*Plan, error) {
	return newPlanElem(rows, cols, o, 0)
}

// newPlanElem is NewPlan with a known element size: elemSize > 0 makes
// the wisdom table eligible to resolve every option the caller left at
// its zero value. elemSize 0 (the untyped NewPlan path) skips wisdom.
func newPlanElem(rows, cols int, o Options, elemSize int) (*Plan, error) {
	size, err := checkShape(rows, cols)
	if err != nil {
		return nil, err
	}
	if o.Order == ColMajor {
		// Theorem 2: a column-major rows×cols buffer is bit-identical to
		// a row-major cols×rows buffer; transposing either is the same
		// linear permutation.
		rows, cols = cols, rows
		o.Order = RowMajor
	}
	if elemSize > 0 {
		k := wisdomKey(tune.Key{Kind: tune.KindTranspose, Rows: rows, Cols: cols, ElemSize: elemSize}, int64(o.Workers))
		d, ok, err := lookupWisdom(o.Tuning, k)
		if err != nil {
			return nil, err
		}
		if ok {
			o = applyWisdom(o, d)
		}
	}
	p := &Plan{rows: rows, cols: cols, size: size}

	switch o.Direction {
	case ForceC2R:
		p.useC2R = true
	case ForceR2C:
		p.useC2R = false
	default:
		// The C2R and R2C pipelines have complementary performance
		// landscapes with a crossover at square shapes, so a shape
		// heuristic picks between them (paper §5.2). For this
		// implementation the C2R pipeline — whose internal column
		// operations work on `rows`-long strided vectors — is fastest
		// when rows is the smaller dimension, and symmetrically for
		// R2C, so the heuristic prefers the direction with the shorter
		// internal columns. (The paper's GPU implementation had the
		// opposite orientation — m > n → C2R — because its bottleneck
		// was fitting a row in on-chip memory rather than column-pass
		// locality; the combined-heuristic principle is the same.)
		p.useC2R = rows <= cols
	}
	if p.useC2R {
		p.plan = cr.NewPlan(rows, cols)
	} else {
		p.plan = cr.NewPlan(cols, rows)
	}

	// With the direction heuristic, skinny (AoS-like) shapes run with
	// their small dimension as the internal column length, which is the
	// paper's §6.1 prescription ("all column operations in on-chip
	// memory"); the one engine therefore serves every shape.
	p.opts = core.Opts{Workers: o.Workers, BlockW: o.BlockWidth}
	return p, nil
}

// ScratchBytes returns the auxiliary space, in bytes, that one
// execution of a rows×cols transpose of elemSize-byte elements holds
// when planned with opts the way the typed paths plan it (NewPlanner,
// Transpose, TransposeWith; with opts.Workers 1, one matrix of
// TransposeBatch), wisdom included: the direction, worker count and
// tile width it resolves set the engine's per-worker scratch buffers.
// A square holds one B×B staging tile per worker that takes a share of
// its swap sweep, and none when one tile covers it. Concurrent
// executions each hold their own. The figure saturates at the largest
// int.
func ScratchBytes(rows, cols, elemSize int, opts Options) (int, error) {
	if elemSize <= 0 {
		return 0, fmt.Errorf("%w: %d", ErrElemSize, elemSize)
	}
	p, err := newPlanElem(rows, cols, opts, elemSize)
	if err != nil {
		return 0, err
	}
	return core.PlanScratchBytes(p.plan, p.opts, elemSize), nil
}

// Rows returns the logical row count the plan transposes from.
func (p *Plan) Rows() int { return p.rows }

// Cols returns the logical column count the plan transposes from.
func (p *Plan) Cols() int { return p.cols }

// UsesC2R reports whether the plan runs the C2R pipeline (as opposed to
// R2C). It reports the direction the plan resolved even for a square,
// where both directions run the same swap sweep.
func (p *Plan) UsesC2R() bool { return p.useC2R }

// Workers returns the worker count the plan resolved (0 = GOMAXPROCS),
// after any wisdom override.
func (p *Plan) Workers() int { return p.opts.Workers }

// String describes the plan.
func (p *Plan) String() string {
	dir := "R2C"
	if p.useC2R {
		dir = "C2R"
	}
	return fmt.Sprintf("inplace.Plan(%dx%d %s)", p.rows, p.cols, dir)
}

// Transpose transposes the row-major rows×cols array held in data, in
// place, with default options: afterwards data holds the row-major
// cols×rows transpose.
func Transpose[T any](data []T, rows, cols int) error {
	return TransposeWith(data, rows, cols, Options{})
}

// TransposeWith is Transpose with explicit options. Calls route through
// a process-wide planner cache keyed by shape, options and element type,
// so repeated transposes of one shape reuse the precomputed schedule and
// scratch arena; callers wanting explicit control over that lifetime
// should hold a Planner instead.
//
//xpose:hotpath
func TransposeWith[T any](data []T, rows, cols int, o Options) error {
	pl, err := plannerFor[T](rows, cols, o)
	if err != nil {
		return err
	}
	return pl.Execute(data)
}
