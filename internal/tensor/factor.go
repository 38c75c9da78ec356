package tensor

// Factorization of a canonical axis permutation into batched 2D
// transpositions.
//
// The primitive available from the 2D engine is the suffix group
// exchange: with the buffer laid out row-major over axis order
// (L..., A..., B...), transposing each contiguous (ΠA)×(ΠB) slab in
// place — one slab per combination of the leading L axes — yields the
// order (L..., B..., A...). Leading axes become an outer slab loop and
// the interiors of both groups are preserved, which is exactly the slab
// structure the paper's Theorem 7 exploits for the 2D passes
// themselves. A sequence of such exchanges realizes any permutation;
// which sequence is cheapest depends on the shape, so two symmetric
// factorizations are produced and a cost model picks.

import (
	"math"

	"inplace/internal/mathutil"
)

// Step is one batched 2D pass: for each of Slabs consecutive contiguous
// slabs of Rows*Cols elements, transpose the row-major Rows×Cols slab
// in place (the slab afterwards holds its row-major Cols×Rows
// transpose).
type Step struct {
	Slabs int
	Rows  int
	Cols  int
}

// FactorGreedy factors the permutation front to back: repeatedly find
// the first output position whose axis is not yet in place and rotate
// the current suffix so the wanted axis (and any following axes that
// already continue the target order) lands there. Each rotation is one
// Step; at least one output position is fixed per step, so a canonical
// rank-k permutation factors into at most k-1 passes.
//
// The shape and perm must be canonical (see Canonicalize): on canonical
// input no rotation is ever degenerate, so every emitted Step moves
// data.
func FactorGreedy(s Shape, p Perm) []Step {
	k := len(s)
	cur := make([]int, k) // current axis order, as source-axis ids
	for i := range cur {
		cur[i] = i
	}
	var steps []Step
	for {
		// First mismatched output position.
		q := 0
		for q < k && cur[q] == p[q] {
			q++
		}
		if q == k {
			return steps
		}
		// Locate the wanted axis in the current order.
		j := q + 1
		for cur[j] != p[q] {
			j++
		}
		// Rotate the suffix cur[q:] at split j: one batched transpose of
		// (Π cur[q:j]) × (Π cur[j:]) per leading slab.
		slabs, a, b := 1, 1, 1
		for _, ax := range cur[:q] {
			slabs *= s[ax]
		}
		for _, ax := range cur[q:j] {
			a *= s[ax]
		}
		for _, ax := range cur[j:] {
			b *= s[ax]
		}
		steps = append(steps, Step{Slabs: slabs, Rows: a, Cols: b})
		rotated := make([]int, 0, k-q)
		rotated = append(rotated, cur[j:]...)
		rotated = append(rotated, cur[q:j]...)
		copy(cur[q:], rotated)
	}
}

// FactorInverse factors the permutation through its inverse: the greedy
// factorization of p⁻¹ (on the permuted shape) maps the result layout
// back to the source layout, so running those steps inverted and in
// reverse order maps source to result. The inverse of a batched A×B
// transpose is the batched B×A transpose over the same slab structure.
// The two factorizations generally differ in pass shapes and slab
// counts, which is what gives the cost model a real choice.
func FactorInverse(s Shape, p Perm) []Step {
	back := FactorGreedy(Permuted(s, p), p.Inverse())
	steps := make([]Step, len(back))
	for i, st := range back {
		steps[len(back)-1-i] = Step{Slabs: st.Slabs, Rows: st.Cols, Cols: st.Rows}
	}
	return steps
}

// stepOverhead is the cost model's per-slab charge in element-move
// units: dispatching one more 2D transpose costs roughly a schedule
// lookup plus a cold cache line or two, so factorizations that shred
// the tensor into many tiny slabs pay for it against factorizations
// that move the same bytes in fewer, larger passes.
const stepOverhead = 256

// Cost estimates a factorization's execution cost in element moves:
// every pass reads and writes the full tensor once (2·size per step),
// plus the per-slab dispatch overhead.
func Cost(steps []Step) float64 {
	total := 0.0
	for _, st := range steps {
		elems := float64(st.Slabs) * float64(st.Rows) * float64(st.Cols)
		total += 2*elems + float64(st.Slabs)*stepOverhead
	}
	return total
}

// ScratchFloor returns the factored plan's auxiliary-space floor in
// bytes: the per-execution scratch of its worst step (the factored
// executor runs one pass at a time). planBytes(i) is the scratch one
// execution of step i's resolved 2D plan holds. A single-slab step runs
// that plan on its own workers; a batched one runs single-worker slab
// plans, each with its own scratch, at most workers of them at once.
// The floor saturates at math.MaxInt.
func ScratchFloor(steps []Step, workers int, planBytes func(i int) int) int {
	floor := 0
	for i, st := range steps {
		b := planBytes(i)
		if st.Slabs > 1 {
			var ok bool
			if b, ok = mathutil.CheckedMul(min(workers, st.Slabs), b); !ok {
				b = math.MaxInt
			}
		}
		floor = max(floor, b)
	}
	return floor
}

// Strategy names for the permutation planner, shared with the wisdom
// table (the Variant of a permutation's tune.Decision) and the tuner's
// candidate set.
const (
	// StrategyGreedy is the front-to-back suffix-rotation factorization.
	StrategyGreedy = "greedy"
	// StrategyInverse is the factorization through the inverse
	// permutation, run backwards.
	StrategyInverse = "inverse"
	// StrategyCycle is the O(1)-auxiliary-space cycle-leader fallback in
	// the spirit of the reversal-method low-memory tensor permutations:
	// no scratch at all, at the cost of O(n·L) index work.
	StrategyCycle = "cycle"
)

// ValidStrategy reports whether s names a planner strategy.
func ValidStrategy(s string) bool {
	switch s {
	case StrategyGreedy, StrategyInverse, StrategyCycle:
		return true
	}
	return false
}
