package inplace

import (
	"errors"
	"fmt"
	"reflect"
	"slices"

	"inplace/internal/core"
	"inplace/internal/mathutil"
	"inplace/internal/parallel"
	"inplace/internal/tensor"
	"inplace/internal/tune"
)

// Rank-generic axis permutation: PermuteAxes reorders the axes of a
// row-major rank-k tensor in place, generalizing Transpose (the rank-2
// case with perm [1,0]) to arbitrary rank. The 2D three-pass engine
// stays the only data mover: the permutation is canonicalized (size-1
// axes stripped, fused runs collapsed — see internal/tensor) and the
// normal form factored into a sequence of batched 2D transpositions,
// each executed by the existing 2D engine per contiguous slab.
// The rank-2 [1,0] case canonicalizes to exactly one single-slab step
// planned by the same newPlanElem path Transpose uses, so there is one
// planning path, not two.
//
// When the factored path's scratch floor exceeds Options.
// MaxScratchBytes, the planner falls back to a cycle-leader walk over
// the affine flat-index map (the reversal-method regime: O(1) auxiliary
// space, O(n·L) index work).

// PermutePlan caches the canonical form, chosen strategy and factored 2D
// step plans for permuting one (dims, perm) pair repeatedly.
type PermutePlan struct {
	dims tensor.Shape // raw dims as given
	perm tensor.Perm  // raw perm as given
	size int          // product of dims, proven to fit in int

	canonDims string // canonical shape key, e.g. "8x1024x16"
	canonPerm string // canonical perm key, e.g. "0,2,1"

	strategy string     // tensor.Strategy* name, or "noop"
	steps    []permStep // factored 2D passes (strategy greedy/inverse)
	cyc      *cyclePlan // cycle-leader fallback (strategy cycle)
	workers  int        // resolved Workers option, for slab dispatch
}

// permStep is one batched pass: transpose `slabs` back-to-back slabs of
// the shared 2D plan's shape.
type permStep struct {
	slabs int
	plan  *Plan
}

// permStrategyNoop names the empty plan of an identity permutation.
const permStrategyNoop = "noop"

// permShapeErr and permErr build the validation errors out of line,
// mirroring shapeErr/lengthErr.
func permShapeErr(dims []int, cause error) error {
	if errors.Is(cause, tensor.ErrOverflow) {
		return fmt.Errorf("%w (dims %v)", ErrOverflow, dims)
	}
	return fmt.Errorf("%w (dims %v)", ErrShape, dims)
}

func permErr(perm, dims []int) error {
	return fmt.Errorf("%w (perm %v for rank %d)", ErrPerm, perm, len(dims))
}

// planPermute validates, canonicalizes and factors one permutation
// problem. forced, when non-empty, bypasses wisdom and the cost model
// and builds the named strategy (the tuner's measurement path).
func planPermute(dims, perm []int, o Options, elemSize int, forced string) (*PermutePlan, error) {
	s := tensor.Shape(dims).Clone()
	size, err := s.Validate()
	if err != nil {
		return nil, permShapeErr(dims, err)
	}
	p := tensor.Perm(perm).Clone()
	if err := p.Validate(len(s)); err != nil {
		return nil, permErr(perm, dims)
	}
	// PermuteAxes addresses the buffer through dims directly; the 2D
	// Order convention does not apply (a column-major tensor is described
	// by reversing dims and perm instead).
	o.Order = RowMajor

	cs, cp := tensor.Canonicalize(s, p)
	pp := &PermutePlan{
		dims: s, perm: p, size: size,
		canonDims: cs.String(), canonPerm: cp.String(),
	}
	if cp.IsIdentity() {
		pp.strategy = permStrategyNoop
		return pp, nil
	}

	greedy := tensor.FactorGreedy(cs, cp)
	inverse := tensor.FactorInverse(cs, cp)
	factored := func(strategy string) []tensor.Step {
		switch strategy {
		case tensor.StrategyGreedy:
			return greedy
		case tensor.StrategyInverse:
			return inverse
		}
		return nil // the cycle walk needs no scratch
	}
	// A strategy whose scratch floor exceeds the caller's bound is not a
	// candidate (the reversal-method regime), whoever proposes it. The
	// floor prices each step's 2D plan as it resolves, 2D wisdom
	// included.
	fits := func(strategy string, workers int) (bool, error) {
		if o.MaxScratchBytes <= 0 {
			return true, nil
		}
		steps := factored(strategy)
		pss, err := planSteps(steps, o, workers, elemSize)
		if err != nil {
			return false, err
		}
		floor := tensor.ScratchFloor(steps, parallel.Workers(workers), func(i int) int {
			return core.PlanScratchBytes(pss[i].plan.plan, pss[i].plan.opts, elemSize)
		})
		return floor <= o.MaxScratchBytes, nil
	}

	strategy := forced
	if strategy == "" {
		k := wisdomKey(tune.Key{Kind: tune.KindPermute, Dims: pp.canonDims, Perm: pp.canonPerm, ElemSize: elemSize}, int64(o.Workers))
		d, ok, err := lookupWisdom(o.Tuning, k)
		if err != nil {
			return nil, err
		}
		workers := o.Workers
		if workers == 0 {
			workers = d.Workers
		}
		// Explicit options win over wisdom: a decision over the
		// MaxScratchBytes bound is ignored.
		if ok {
			fit, err := fits(d.Variant, workers)
			if err != nil {
				return nil, err
			}
			if fit {
				strategy, o.Workers = d.Variant, workers
			}
		}
	}
	pp.workers = o.Workers

	if strategy == "" {
		gFit, err := fits(tensor.StrategyGreedy, o.Workers)
		if err != nil {
			return nil, err
		}
		iFit, err := fits(tensor.StrategyInverse, o.Workers)
		if err != nil {
			return nil, err
		}
		switch {
		case gFit && iFit:
			if tensor.Cost(inverse) < tensor.Cost(greedy) {
				strategy = tensor.StrategyInverse
			} else {
				strategy = tensor.StrategyGreedy
			}
		case gFit:
			strategy = tensor.StrategyGreedy
		case iFit:
			strategy = tensor.StrategyInverse
		default:
			strategy = tensor.StrategyCycle
		}
	}
	pp.strategy = strategy

	if strategy == tensor.StrategyCycle {
		pp.cyc = newCyclePlan(cs, cp)
		return pp, nil
	}
	steps := factored(strategy)
	if steps == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownMethod, strategy)
	}
	if pp.steps, err = planSteps(steps, o, o.Workers, elemSize); err != nil {
		return nil, err
	}
	return pp, nil
}

// planSteps resolves the 2D plan of every factored step on a workers
// budget, the way the executor runs it: a batched step transposes each
// slab single-threaded, since the slab dimension provides the
// parallelism and pool dispatches never nest (the TransposeBatch
// discipline), and each step consults 2D wisdom for its own shape.
func planSteps(steps []tensor.Step, o Options, workers, elemSize int) ([]permStep, error) {
	pss := make([]permStep, len(steps))
	for i, st := range steps {
		stepO := o
		stepO.Workers = workers
		stepO.MaxScratchBytes = 0
		if st.Slabs > 1 {
			stepO.Workers = 1
		}
		if stepO.Tuning == WisdomRequired {
			// The perm-level wisdom requirement was checked by the
			// caller; the factored 2D shapes consult 2D wisdom
			// opportunistically.
			stepO.Tuning = WisdomAuto
		}
		p2, err := newPlanElem(st.Rows, st.Cols, stepO, elemSize)
		if err != nil {
			return nil, err
		}
		pss[i] = permStep{slabs: st.Slabs, plan: p2}
	}
	return pss, nil
}

// Dims returns a copy of the plan's dimension list.
func (pp *PermutePlan) Dims() []int { return pp.dims.Clone() }

// Perm returns a copy of the plan's axis permutation.
func (pp *PermutePlan) Perm() []int { return pp.perm.Clone() }

// Size returns the element count of the plan's tensor.
func (pp *PermutePlan) Size() int { return pp.size }

// Strategy names the execution strategy the planner chose: "greedy" or
// "inverse" for the factored 2D paths, "cycle" for the O(1)-space
// fallback, "noop" for permutations that canonicalize to the identity.
func (pp *PermutePlan) Strategy() string { return pp.strategy }

// Passes returns the number of batched 2D passes the plan executes
// (0 for noop and cycle plans).
func (pp *PermutePlan) Passes() int { return len(pp.steps) }

// String describes the plan.
func (pp *PermutePlan) String() string {
	return fmt.Sprintf("inplace.PermutePlan(%s perm %s %s/%d-pass)",
		pp.dims.String(), pp.perm.String(), pp.strategy, len(pp.steps))
}

// --- Cycle-leader fallback ---

// cyclePlan executes the permutation as a cycle-leader walk over the
// affine flat-index map: element at flat source index s moves to
// dest(s) = Σ_i coord_i(s)·w_i, where w_i is the destination stride of
// source axis i. No scratch is allocated; each cycle is rotated through
// a single temporary element.
type cyclePlan struct {
	n    int
	divs []mathutil.Divider // fixed-point divisors for the source dims
	w    []int              // destination stride of each source axis
}

func newCyclePlan(cs tensor.Shape, cp tensor.Perm) *cyclePlan {
	dstStrides, ok := tensor.Strides(tensor.Permuted(cs, cp))
	if !ok {
		// The shape validated, so its permuted strides fit too.
		panic("inplace: permuted strides overflow for a validated shape")
	}
	inv := cp.Inverse()
	c := &cyclePlan{n: cs.Size(), divs: make([]mathutil.Divider, len(cs)), w: make([]int, len(cs))}
	for i, d := range cs {
		c.divs[i] = mathutil.NewDivider(d)
		c.w[i] = dstStrides[inv[i]]
	}
	return c
}

// dest maps a flat source index to its flat destination index, decoding
// the source coordinates innermost axis first.
//
//xpose:hotpath
func (c *cyclePlan) dest(s int) int {
	d := 0
	for i := len(c.divs) - 1; i >= 0; i-- {
		q, r := c.divs[i].DivMod(s)
		d += r * c.w[i]
		s = q
	}
	return d
}

// cycleApply permutes data in place by following each cycle of the
// index map from its leader (the cycle's minimum index), rotating the
// values through one temporary. Leadership is decided by walking the
// cycle, which is the O(n·L) index work the cycle strategy trades for
// its O(1) space.
//
//xpose:hotpath
func cycleApply[T any](c *cyclePlan, data []T) {
	n := c.n
	for start := 0; start < n; start++ {
		d := c.dest(start)
		if d == start {
			continue
		}
		leader := true
		for j := d; j != start; j = c.dest(j) {
			if j < start {
				leader = false
				break
			}
		}
		if !leader {
			continue
		}
		tmp := data[start]
		cur := start
		for {
			nxt := c.dest(cur)
			if nxt == start {
				data[start] = tmp
				break
			}
			data[nxt], tmp = tmp, data[nxt]
			cur = nxt
		}
	}
}

// --- Typed planner ---

// PermutePlanner binds a PermutePlan to an element type: one engine per
// factored pass, each owning its schedule and recycled scratch arena.
// After the first Execute has warmed the arenas, subsequent Executes
// perform no heap allocation when the plan runs on one worker, and a
// single-slab plan (every rank-2 transpose, and every shape whose
// canonical form needs no slab batching) allocates nothing on any
// number of workers.
//
// A PermutePlanner is safe for concurrent use, like Planner.
type PermutePlanner[T any] struct {
	pp  *PermutePlan
	pls []*Planner[T]
}

// NewPermutePlanner validates dims and perm and precomputes an execution
// plan for permuting the axes of rank-k arrays of T repeatedly. The
// variadic opts follows NewPlanner: at most one Options value is
// honoured. Knowing the element type, it consults the process wisdom
// table for the strategy (see TunePermute) and for each factored 2D
// pass, unless MaxScratchBytes rules the recorded strategy out.
func NewPermutePlanner[T any](dims, perm []int, opts ...Options) (*PermutePlanner[T], error) {
	pp, err := planPermute(dims, perm, optionsOf(opts), int(reflect.TypeFor[T]().Size()), "")
	if err != nil {
		return nil, err
	}
	return newPermutePlanner[T](pp), nil
}

func newPermutePlanner[T any](pp *PermutePlan) *PermutePlanner[T] {
	pl := &PermutePlanner[T]{pp: pp}
	if len(pp.steps) > 0 {
		pl.pls = make([]*Planner[T], len(pp.steps))
		for i, st := range pp.steps {
			pl.pls[i] = newPlanner[T](st.plan)
		}
	}
	return pl
}

// Execute permutes data in place according to the plan. data must hold
// Size() elements of the row-major dims tensor; afterwards element
// (i_0, ..., i_{k-1}) of the permuted tensor — whose axis j is source
// axis perm[j] — lives at its row-major offset for the permuted dims.
//
//xpose:hotpath
func (pl *PermutePlanner[T]) Execute(data []T) error {
	pp := pl.pp
	if len(data) != pp.size {
		return lengthErr(len(data), pp.size)
	}
	if pp.cyc != nil {
		cycleApply(pp.cyc, data)
	}
	for i, st := range pp.steps {
		forSlabs(pl.pls[i], data, st.slabs, pp.workers)
	}
	return nil
}

// Plan returns the underlying permutation plan.
func (pl *PermutePlanner[T]) Plan() *PermutePlan { return pl.pp }

// String describes the planner.
func (pl *PermutePlanner[T]) String() string { return pl.pp.String() }

// --- Cached entry point ---

// PermuteAxes permutes the axes of the row-major tensor held in data, in
// place: data holds a rank-k array with the given dims, and afterwards
// holds the array whose axis j is source axis perm[j] (the
// numpy.transpose convention), in row-major order of the permuted dims.
// PermuteAxes(data, dims, [1,0]) of a rank-2 tensor is exactly
// Transpose(data, dims[0], dims[1]).
//
// Calls route through the process-wide planner cache that TransposeWith
// uses, keyed by dims, perm, options and element type; callers wanting
// explicit control over plan lifetime should hold a PermutePlanner.
//
//xpose:hotpath
func PermuteAxes[T any](data []T, dims, perm []int, opts ...Options) error {
	o := optionsOf(opts)
	pl, err := cachedPlanner(plannerKey{perm: permHash(dims, perm), opts: o},
		func(pl *PermutePlanner[T]) bool {
			return slices.Equal(pl.pp.dims, dims) && slices.Equal(pl.pp.perm, perm)
		},
		func() (*PermutePlanner[T], error) { return NewPermutePlanner[T](dims, perm, o) })
	if err != nil {
		return err
	}
	return pl.Execute(data)
}

// permHash mixes raw dims and perm into a permutation's cache key
// (FNV-1a over the lengths and values). Distinct requests may collide;
// the cache re-checks both lists on every hit.
func permHash(dims, perm []int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, xs := range [2][]int{dims, perm} {
		h = (h ^ uint64(len(xs))) * prime
		for _, x := range xs {
			h = (h ^ uint64(x)) * prime
		}
	}
	return h
}
