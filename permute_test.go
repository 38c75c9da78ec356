package inplace

import (
	"errors"
	"math/rand"
	"testing"

	"inplace/internal/core"
	"inplace/internal/tune"
)

// naivePermute is the out-of-place reference: a strided copy into a
// fresh buffer following the numpy.transpose convention (result axis j
// is source axis perm[j]).
func naivePermute[T any](src []T, dims, perm []int) []T {
	k := len(dims)
	srcStrides := make([]int, k)
	acc := 1
	for i := k - 1; i >= 0; i-- {
		srcStrides[i] = acc
		acc *= dims[i]
	}
	dstStrides := make([]int, k)
	acc = 1
	for j := k - 1; j >= 0; j-- {
		dstStrides[j] = acc
		acc *= dims[perm[j]]
	}
	out := make([]T, len(src))
	coord := make([]int, k)
	for idx := range src {
		rem := idx
		for i := 0; i < k; i++ {
			coord[i] = rem / srcStrides[i]
			rem %= srcStrides[i]
		}
		d := 0
		for j := 0; j < k; j++ {
			d += coord[perm[j]] * dstStrides[j]
		}
		out[d] = src[idx]
	}
	return out
}

func permutedDims(dims, perm []int) []int {
	out := make([]int, len(perm))
	for j, a := range perm {
		out[j] = dims[a]
	}
	return out
}

func fillSeq(n int) []uint32 {
	data := make([]uint32, n)
	for i := range data {
		data[i] = uint32(i) * 2654435761
	}
	return data
}

func checkPermute(t *testing.T, dims, perm []int, o Options) {
	t.Helper()
	size := 1
	for _, d := range dims {
		size *= d
	}
	data := fillSeq(size)
	orig := append([]uint32(nil), data...)
	want := naivePermute(orig, dims, perm)

	if err := PermuteAxes(data, dims, perm, o); err != nil {
		t.Fatalf("PermuteAxes(%v, %v): %v", dims, perm, err)
	}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("PermuteAxes(%v, %v, %+v): wrong at %d", dims, perm, o, i)
		}
	}

	// Inverse composition: permuting the result by perm⁻¹ restores the
	// original buffer.
	inv := make([]int, len(perm))
	for j, a := range perm {
		inv[a] = j
	}
	if err := PermuteAxes(data, permutedDims(dims, perm), inv, o); err != nil {
		t.Fatalf("inverse PermuteAxes(%v, %v): %v", permutedDims(dims, perm), inv, err)
	}
	for i := range data {
		if data[i] != orig[i] {
			t.Fatalf("PermuteAxes(%v, %v, %+v): inverse round trip wrong at %d", dims, perm, o, i)
		}
	}
}

func TestPermuteAxesAgainstReference(t *testing.T) {
	cases := []struct {
		dims []int
		perm []int
	}{
		{[]int{6, 7}, []int{1, 0}},
		{[]int{2, 3, 4}, []int{2, 0, 1}},
		{[]int{2, 3, 4}, []int{1, 2, 0}},
		{[]int{5, 4, 3}, []int{2, 1, 0}},
		{[]int{4, 8, 8, 3}, []int{0, 3, 1, 2}}, // NHWC -> NCHW
		{[]int{4, 3, 8, 8}, []int{0, 2, 3, 1}}, // NCHW -> NHWC
		{[]int{3, 4, 5, 2}, []int{3, 2, 1, 0}},
		{[]int{2, 3, 2, 2, 3}, []int{4, 2, 0, 3, 1}},
		{[]int{7, 1, 5, 1}, []int{2, 0, 3, 1}}, // size-1 axes
		{[]int{16, 1, 9}, []int{2, 1, 0}},
	}
	for _, c := range cases {
		checkPermute(t, c.dims, c.perm, Options{Workers: 1})
		checkPermute(t, c.dims, c.perm, Options{Workers: 4})
	}
}

func TestPermuteAxesStrategies(t *testing.T) {
	dims := []int{3, 4, 5, 2}
	perm := []int{2, 0, 3, 1}
	size := 3 * 4 * 5 * 2
	want := naivePermute(fillSeq(size), dims, perm)
	for _, strat := range []string{"greedy", "inverse", "cycle"} {
		pp, err := planPermute(dims, perm, Options{Workers: 1}, 4, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if pp.Strategy() != strat {
			t.Fatalf("forced %s, got %s", strat, pp.Strategy())
		}
		pl := newPermutePlanner[uint32](pp)
		data := fillSeq(size)
		if err := pl.Execute(data); err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		for i := range data {
			if data[i] != want[i] {
				t.Fatalf("strategy %s: wrong at %d", strat, i)
			}
		}
	}
}

// Rank-2 [1,0] must be byte-identical to Transpose and route through the
// same planning path: a single single-slab pass whose 2D plan matches
// the one NewPlanner builds.
func TestPermuteAxesRank2MatchesTranspose(t *testing.T) {
	rows, cols := 37, 53
	a := fillSeq(rows * cols)
	b := append([]uint32(nil), a...)

	if err := Transpose(a, rows, cols); err != nil {
		t.Fatal(err)
	}
	if err := PermuteAxes(b, []int{rows, cols}, []int{1, 0}); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank-2 permute diverges from Transpose at %d", i)
		}
	}

	pl, err := NewPermutePlanner[uint32]([]int{rows, cols}, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	pp := pl.Plan()
	if pp.Passes() != 1 {
		t.Fatalf("rank-2 plan has %d passes, want 1", pp.Passes())
	}
	p2d, err := NewPlanner[uint32](rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	got, want := pp.steps[0].plan, p2d.Plan()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() ||
		got.UsesC2R() != want.UsesC2R() || got.Workers() != want.Workers() {
		t.Fatalf("rank-2 step plan %v diverges from Transpose plan %v", got, want)
	}
}

func TestPermuteAxesDegenerate(t *testing.T) {
	// Identity permutation: no-op, any rank.
	data := fillSeq(24)
	orig := append([]uint32(nil), data...)
	if err := PermuteAxes(data, []int{2, 3, 4}, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] != orig[i] {
			t.Fatal("identity permutation modified the buffer")
		}
	}
	pl, err := NewPermutePlanner[uint32]([]int{2, 3, 4}, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Plan().Strategy() != "noop" {
		t.Fatalf("identity strategy = %q, want noop", pl.Plan().Strategy())
	}

	// A permutation that only moves size-1 axes is also a no-op.
	pl2, err := NewPermutePlanner[uint32]([]int{1, 6, 1, 4}, []int{2, 1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if pl2.Plan().Strategy() != "noop" {
		t.Fatalf("unit-axis shuffle strategy = %q, want noop", pl2.Plan().Strategy())
	}

	// Rank-1 and scalar tensors.
	one := []uint32{7}
	if err := PermuteAxes(one, []int{1}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := PermuteAxes([]uint32{1, 2, 3}, []int{3}, []int{0}); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteAxesErrors(t *testing.T) {
	data := make([]uint32, 6)
	if err := PermuteAxes(data, []int{2, 0}, []int{0, 1}); !errors.Is(err, ErrShape) {
		t.Errorf("zero dim: err = %v, want ErrShape", err)
	}
	if err := PermuteAxes(data, []int{1 << 31, 1 << 31, 1 << 31}, []int{0, 1, 2}); !errors.Is(err, ErrOverflow) {
		t.Errorf("overflow: err = %v, want ErrOverflow", err)
	}
	if err := PermuteAxes(data, []int{2, 3}, []int{0, 0}); !errors.Is(err, ErrPerm) {
		t.Errorf("duplicate axis: err = %v, want ErrPerm", err)
	}
	if err := PermuteAxes(data, []int{2, 3}, []int{1, 0, 2}); !errors.Is(err, ErrPerm) {
		t.Errorf("rank mismatch: err = %v, want ErrPerm", err)
	}
	if err := PermuteAxes(data[:5], []int{2, 3}, []int{1, 0}); !errors.Is(err, ErrLength) {
		t.Errorf("short buffer: err = %v, want ErrLength", err)
	}
	if err := PermuteAxes(data, []int{2, 3}, []int{1, 0}, Options{Tuning: WisdomRequired}); !errors.Is(err, ErrNoWisdom) {
		t.Errorf("wisdom required: err = %v, want ErrNoWisdom", err)
	}
}

// MaxScratchBytes below the factored floor must route to the cycle
// strategy, and the result must stay correct.
func TestPermuteAxesScratchBudget(t *testing.T) {
	dims := []int{6, 50, 4}
	perm := []int{2, 1, 0}
	pl, err := NewPermutePlanner[uint32](dims, perm, Options{MaxScratchBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Plan().Strategy() != "cycle" {
		t.Fatalf("budgeted strategy = %q, want cycle", pl.Plan().Strategy())
	}
	// Explicit options win over wisdom: a stored factored decision over
	// the bound is ignored, under WisdomRequired too.
	ClearWisdom()
	defer ClearWisdom()
	storeWisdom(wisdomKey(tune.Key{Kind: tune.KindPermute, Dims: pl.Plan().canonDims, Perm: pl.Plan().canonPerm, ElemSize: 4}, 0),
		tune.Decision{Variant: "greedy", Workers: 1})
	for _, mode := range []Tuning{WisdomAuto, WisdomRequired} {
		wp, err := NewPermutePlanner[uint32](dims, perm, Options{MaxScratchBytes: 16, Tuning: mode})
		if err != nil {
			t.Fatal(err)
		}
		if s := wp.Plan().Strategy(); s != "cycle" {
			t.Fatalf("Tuning %v: budgeted strategy with greedy wisdom = %q, want cycle", mode, s)
		}
	}
	if wp, err := NewPermutePlanner[uint32](dims, perm, Options{}); err != nil || wp.Plan().Strategy() != "greedy" {
		t.Fatalf("unbudgeted planner ignored the stored decision: %v", err)
	}
	size := 6 * 50 * 4
	data := fillSeq(size)
	want := naivePermute(fillSeq(size), dims, perm)
	if err := pl.Execute(data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("cycle strategy wrong at %d", i)
		}
	}
}

// The scratch bound prices each factored step's 2D plan as it resolves:
// a 2D wisdom entry for the step shape that flips its direction and
// widens its tile raises the step's scratch past MaxScratchBytes, which
// must rule the factored strategies out.
func TestPermuteScratchBudgetFollowsStepWisdom(t *testing.T) {
	ClearWisdom()
	defer ClearWisdom()
	dims, perm := []int{16, 1024}, []int{1, 0} // one 16×1024 step
	o := Options{Workers: 1, MaxScratchBytes: 8192}
	pl, err := NewPermutePlanner[uint32](dims, perm, o)
	if err != nil {
		t.Fatal(err)
	}
	if s := pl.Plan().Strategy(); s == "cycle" {
		t.Fatalf("heuristic step plan (%d bytes) should fit %d bytes, got %q", core.ScratchBytes(16, 1024, 4, 1, 64), o.MaxScratchBytes, s)
	}
	storeWisdom(wisdomKey(tune.Key{Kind: tune.KindTranspose, Rows: 16, Cols: 1024, ElemSize: 4}, 1),
		tune.Decision{Variant: "cache-aware", C2R: false, Workers: 1, BlockW: 16})
	stepBytes, err := ScratchBytes(16, 1024, 4, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stepBytes <= o.MaxScratchBytes {
		t.Fatalf("tuned step plan holds %d bytes, want more than %d", stepBytes, o.MaxScratchBytes)
	}
	pl, err = NewPermutePlanner[uint32](dims, perm, o)
	if err != nil {
		t.Fatal(err)
	}
	if s := pl.Plan().Strategy(); s != "cycle" {
		t.Fatalf("strategy with the tuned step over the bound = %q, want cycle", s)
	}
	data := fillSeq(16 * 1024)
	want := naivePermute(fillSeq(16*1024), dims, perm)
	if err := pl.Execute(data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("cycle strategy wrong at %d", i)
		}
	}
}

// Perm wisdom steers the planner: a recorded decision for the canonical
// form must be picked up by a fresh planner under the budget it was
// tuned with, and WisdomRequired must be satisfied by it there and only
// there.
func TestPermuteWisdomSteersPlanner(t *testing.T) {
	ClearWisdom()
	defer ClearWisdom()
	dims := []int{4, 8, 8, 3}
	perm := []int{0, 3, 1, 2}
	if _, err := TunePermute[uint32](dims, perm, TuneConfig{Workers: 1, Fast: true}); err != nil {
		t.Fatal(err)
	}
	if WisdomLen() != 1 {
		t.Fatalf("WisdomLen = %d, want 1", WisdomLen())
	}
	pl, err := NewPermutePlanner[uint32](dims, perm, Options{Workers: 1, Tuning: WisdomRequired})
	if err != nil {
		t.Fatalf("WisdomRequired after TunePermute: %v", err)
	}
	if s := pl.Plan().Strategy(); !(s == "greedy" || s == "inverse" || s == "cycle") {
		t.Fatalf("tuned strategy = %q", s)
	}
	// A different raw shape with the same canonical form shares the entry.
	if _, err := NewPermutePlanner[uint32]([]int{4, 1, 8, 8, 3}, []int{0, 1, 4, 2, 3}, Options{Workers: 1, Tuning: WisdomRequired}); err != nil {
		t.Fatalf("canonical-form sharing: %v", err)
	}
	// The worker budget is part of the key: a 2-worker plan has no wisdom.
	if _, err := NewPermutePlanner[uint32](dims, perm, Options{Workers: 2, Tuning: WisdomRequired}); !errors.Is(err, ErrNoWisdom) {
		t.Fatalf("Workers 2 planner matched budget-1 wisdom: err = %v, want ErrNoWisdom", err)
	}
	checkPermute(t, dims, perm, Options{})
}

func TestPermuteRandomizedAllRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		k := 2 + rng.Intn(4) // rank 2..5
		dims := make([]int, k)
		for i := range dims {
			dims[i] = 1 + rng.Intn(6)
		}
		perm := rng.Perm(k)
		checkPermute(t, dims, perm, Options{Workers: 1 + rng.Intn(3)})
	}
}
