package tensor

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"inplace/internal/core"
)

// refPermute is the naive out-of-place reference: result[j-coords] =
// src[source coords], with result axis j being source axis p[j].
func refPermute(src []int, s Shape, p Perm) []int {
	srcStrides, ok := Strides(s)
	if !ok {
		panic("ref: stride overflow")
	}
	dstStrides, ok := Strides(Permuted(s, p))
	if !ok {
		panic("ref: dst stride overflow")
	}
	out := make([]int, len(src))
	coord := make([]int, len(s))
	for idx := range src {
		rem := idx
		for i := range s {
			coord[i] = rem / srcStrides[i]
			rem %= srcStrides[i]
		}
		d := 0
		for j, a := range p {
			d += coord[a] * dstStrides[j]
		}
		out[d] = src[idx]
	}
	return out
}

// applySteps executes a factorization with a trivial per-slab
// out-of-place transpose, validating the Step geometry independently of
// the real engine.
func applySteps(data []int, steps []Step) {
	for _, st := range steps {
		slab := st.Rows * st.Cols
		tmp := make([]int, slab)
		for k := 0; k < st.Slabs; k++ {
			s := data[k*slab : (k+1)*slab]
			for i := 0; i < st.Rows; i++ {
				for j := 0; j < st.Cols; j++ {
					tmp[j*st.Rows+i] = s[i*st.Cols+j]
				}
			}
			copy(s, tmp)
		}
	}
}

func seq(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i
	}
	return v
}

func allPerms(k int) []Perm {
	if k == 0 {
		return []Perm{{}}
	}
	var out []Perm
	var rec func(rest []int, acc Perm)
	rec = func(rest []int, acc Perm) {
		if len(rest) == 0 {
			out = append(out, acc.Clone())
			return
		}
		for i, a := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			rec(next, append(acc, a))
		}
	}
	rec(seq(k), nil)
	return out
}

// Exhaustive check over small shapes and every permutation: the
// canonical form describes the same flat permutation, and both
// factorizations of the canonical form realize it.
func TestCanonicalizeAndFactorExhaustive(t *testing.T) {
	shapes := []Shape{
		{2, 3}, {3, 2}, {1, 4}, {4, 1},
		{2, 3, 4}, {2, 1, 3}, {1, 1, 5}, {3, 3, 3},
		{2, 3, 2, 2}, {1, 2, 1, 3}, {2, 2, 2, 2},
		{2, 3, 1, 2, 2},
	}
	for _, s := range shapes {
		size, err := s.Validate()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for _, p := range allPerms(len(s)) {
			want := refPermute(seq(size), s, p)

			cs, cp, err := canonPair(s, p)
			if err != nil {
				t.Fatalf("%v %v: %v", s, p, err)
			}
			gotCanon := refPermute(seq(size), cs, cp)
			if !reflect.DeepEqual(gotCanon, want) {
				t.Fatalf("%v %v: canonical (%v, %v) computes a different flat permutation", s, p, cs, cp)
			}

			for name, steps := range map[string][]Step{
				"greedy":  FactorGreedy(cs, cp),
				"inverse": FactorInverse(cs, cp),
			} {
				data := seq(size)
				applySteps(data, steps)
				if !reflect.DeepEqual(data, want) {
					t.Fatalf("%v %v [%s over (%v, %v)]: factored result wrong\nsteps=%v\ngot  %v\nwant %v",
						s, p, name, cs, cp, steps, data, want)
				}
				if cp.IsIdentity() && len(steps) != 0 {
					t.Fatalf("%v %v [%s]: identity canonical form factored into %d steps", s, p, name, len(steps))
				}
				if !cp.IsIdentity() && len(steps) > len(cs)-1 {
					t.Fatalf("%v %v [%s]: %d steps exceeds the k-1 bound for rank %d", s, p, name, len(steps), len(cs))
				}
			}
		}
	}
}

func canonPair(s Shape, p Perm) (Shape, Perm, error) {
	if _, err := s.Validate(); err != nil {
		return nil, nil, err
	}
	if err := p.Validate(len(s)); err != nil {
		return nil, nil, err
	}
	cs, cp := Canonicalize(s, p)
	return cs, cp, nil
}

func TestCanonicalizeNormalForms(t *testing.T) {
	cases := []struct {
		s        Shape
		p        Perm
		wantS    Shape
		wantP    Perm
		identity bool
	}{
		// NHWC -> NCHW: H and W stay fused; one batched transpose.
		{Shape{8, 32, 32, 16}, Perm{0, 3, 1, 2}, Shape{8, 1024, 16}, Perm{0, 2, 1}, false},
		// NCHW -> NHWC, the inverse orientation.
		{Shape{8, 16, 32, 32}, Perm{0, 2, 3, 1}, Shape{8, 16, 1024}, Perm{0, 2, 1}, false},
		// Identity collapses to a single axis.
		{Shape{2, 3, 4}, Perm{0, 1, 2}, Shape{24}, Perm{0}, true},
		// Unit axes vanish wherever the permutation puts them.
		{Shape{1, 5, 1, 7}, Perm{3, 0, 1, 2}, Shape{5, 7}, Perm{1, 0}, false},
		// All-unit shapes canonicalize to rank 0.
		{Shape{1, 1, 1}, Perm{2, 0, 1}, Shape{}, Perm{}, true},
		// Plain 2D transpose is already canonical.
		{Shape{6, 7}, Perm{1, 0}, Shape{6, 7}, Perm{1, 0}, false},
	}
	for _, c := range cases {
		gs, gp := Canonicalize(c.s, c.p)
		if !reflect.DeepEqual(gs, c.wantS) || !reflect.DeepEqual(gp, c.wantP) {
			t.Errorf("Canonicalize(%v, %v) = (%v, %v), want (%v, %v)", c.s, c.p, gs, gp, c.wantS, c.wantP)
		}
		if gp.IsIdentity() != c.identity {
			t.Errorf("Canonicalize(%v, %v): identity = %v, want %v", c.s, c.p, gp.IsIdentity(), c.identity)
		}
	}
}

func TestNHWCFactorsToOnePass(t *testing.T) {
	cs, cp := Canonicalize(Shape{8, 32, 32, 16}, Perm{0, 3, 1, 2})
	steps := FactorGreedy(cs, cp)
	if len(steps) != 1 {
		t.Fatalf("NHWC->NCHW canonical form factored into %d passes, want 1: %v", len(steps), steps)
	}
	want := Step{Slabs: 8, Rows: 1024, Cols: 16}
	if steps[0] != want {
		t.Fatalf("NHWC->NCHW step = %+v, want %+v", steps[0], want)
	}
}

func TestValidation(t *testing.T) {
	if _, err := (Shape{2, 0, 3}).Validate(); !errors.Is(err, ErrShape) {
		t.Errorf("zero dim: err = %v, want ErrShape", err)
	}
	if _, err := (Shape{math.MaxInt, 2}).Validate(); !errors.Is(err, ErrOverflow) {
		t.Errorf("overflow: err = %v, want ErrOverflow", err)
	}
	if err := (Perm{0, 2}).Validate(2); !errors.Is(err, ErrPerm) {
		t.Errorf("out of range: err = %v, want ErrPerm", err)
	}
	if err := (Perm{0, 0}).Validate(2); !errors.Is(err, ErrPerm) {
		t.Errorf("duplicate: err = %v, want ErrPerm", err)
	}
	if err := (Perm{0}).Validate(2); !errors.Is(err, ErrPerm) {
		t.Errorf("short: err = %v, want ErrPerm", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	s, err := ParseShape("2x3x4")
	if err != nil || s.String() != "2x3x4" {
		t.Fatalf("ParseShape: %v, %v", s, err)
	}
	p, err := ParsePerm("2,0,1", 3)
	if err != nil || p.String() != "2,0,1" {
		t.Fatalf("ParsePerm: %v, %v", p, err)
	}
	if _, err := ParseShape("2xax4"); !errors.Is(err, ErrShape) {
		t.Errorf("bad shape: err = %v, want ErrShape", err)
	}
	if _, err := ParsePerm("0,1,3", 3); !errors.Is(err, ErrPerm) {
		t.Errorf("bad perm: err = %v, want ErrPerm", err)
	}
}

func TestInverseComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		k := 2 + rng.Intn(4)
		s := make(Shape, k)
		for i := range s {
			s[i] = 1 + rng.Intn(5)
		}
		p := Perm(rng.Perm(k))
		size, _ := s.Validate()
		once := refPermute(seq(size), s, p)
		back := refPermute(once, Permuted(s, p), p.Inverse())
		if !reflect.DeepEqual(back, seq(size)) {
			t.Fatalf("%v %v: inverse composition is not the identity", s, p)
		}
	}
}

// heuristicBytes prices step i of steps the way the planner resolves it
// without wisdom: the shorter side as the plan's m, the derived tile
// width, and a single worker per slab plan of a batched step.
func heuristicBytes(steps []Step, elemSize, workers int) func(i int) int {
	return func(i int) int {
		st := steps[i]
		m, n := min(st.Rows, st.Cols), max(st.Rows, st.Cols)
		if st.Slabs > 1 {
			workers = 1
		}
		return core.ScratchBytes(m, n, elemSize, workers, core.TileWidth(m, n, elemSize, 0))
	}
}

func TestCostAndFloor(t *testing.T) {
	one := []Step{{Slabs: 8, Rows: 1024, Cols: 16}}
	two := []Step{{Slabs: 1, Rows: 64, Cols: 2048}, {Slabs: 16, Rows: 64, Cols: 128}}
	if Cost(one) >= Cost(two) {
		t.Errorf("Cost: one pass %v should be cheaper than two %v", Cost(one), Cost(two))
	}
	// one: a 16×1024 plan of 8-byte elements tiles 64 columns wide, so
	// each worker holds max(1024, 16·64) elements plus 64 amounts.
	perWorker := 1024*8 + 64*8
	if got := ScratchFloor(one, 2, heuristicBytes(one, 8, 2)); got != 2*perWorker {
		t.Errorf("ScratchFloor = %d, want %d", got, 2*perWorker)
	}
	// Batched slabs run single-worker plans, at most one per slab.
	if got := ScratchFloor(one, 16, heuristicBytes(one, 8, 16)); got != 8*perWorker {
		t.Errorf("ScratchFloor(16 workers, 8 slabs) = %d, want %d", got, 8*perWorker)
	}
	// The floor is the worst step's, by the engine's own figure.
	want := core.ScratchBytes(64, 2048, 8, 4, core.TileWidth(64, 2048, 8, 0))
	if got := ScratchFloor(two, 4, heuristicBytes(two, 8, 4)); got != want {
		t.Errorf("ScratchFloor(two) = %d, want %d", got, want)
	}
	// More slabs at once than rows: each slab plan holds its own
	// max(n, m·W)-element buffer.
	skinny := []Step{{Slabs: 8, Rows: 4, Cols: 100000}}
	if got, want := ScratchFloor(skinny, 8, heuristicBytes(skinny, 8, 8)), 8*core.ScratchBytes(4, 100000, 8, 1, core.TileWidth(4, 100000, 8, 0)); got != want {
		t.Errorf("ScratchFloor(8 slabs of 4x100000, 8 workers) = %d, want %d", got, want)
	}
	// Saturation: a batched step whose slab plans overflow together.
	huge := []Step{{Slabs: 1 << 40, Rows: 2, Cols: 2}}
	if got := ScratchFloor(huge, 1<<40, func(int) int { return 1 << 40 }); got != math.MaxInt {
		t.Errorf("ScratchFloor(overflowing slabs) = %d, want MaxInt", got)
	}
	if got := ScratchFloor(nil, 2, nil); got != 0 {
		t.Errorf("ScratchFloor(nil) = %d, want 0", got)
	}
}

func TestValidStrategy(t *testing.T) {
	for _, s := range []string{StrategyGreedy, StrategyInverse, StrategyCycle} {
		if !ValidStrategy(s) {
			t.Errorf("ValidStrategy(%q) = false", s)
		}
	}
	if ValidStrategy("bogus") {
		t.Error(`ValidStrategy("bogus") = true`)
	}
}
