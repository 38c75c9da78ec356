package core

import (
	"fmt"
	"strings"
	"testing"

	"inplace/internal/cr"
	"inplace/internal/parallel"
)

// TestEnginePassLists pins the pass list NewEngine builds for each
// direction: a square runs one swap sweep either way; any other plan's
// C2R list is the pre-rotation (gcd(m, n) > 1 only), the row shuffle and
// the column shuffle, with no column passes when m = 1, and its R2C list
// is their inverses in reverse order. Every partition covers its range
// in at most the resolved worker count of non-empty chunks.
func TestEnginePassLists(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 17}, {17, 1}, {2, 2}, {7, 7}, {64, 64}, {65, 65}, {12, 18}, {97, 101}}
	for _, f := range passFamilies {
		shapes = append(shapes, [2]int{f.m, f.n})
	}
	for _, sh := range shapes {
		for _, workers := range []int{1, 2, 3, 8} {
			checkPassLists[uint32](t, sh[0], sh[1], workers)
			checkPassLists[uint64](t, sh[0], sh[1], workers)
		}
	}
}

func checkPassLists[T uint32 | uint64](t *testing.T, m, n, workers int) {
	t.Helper()
	p := cr.NewPlan(m, n)
	var want [2][]string // C2R, R2C
	switch {
	case m == n:
		want = [2][]string{{"swap"}, {"swap"}}
	case m == 1:
		want = [2][]string{{"row_c2r"}, {"row_r2c"}}
	case p.Coprime:
		want = [2][]string{{"row_c2r", "col_shuffle"}, {"col_unshuffle", "row_r2c"}}
	default:
		want = [2][]string{{"pre_rotate", "row_c2r", "col_shuffle"}, {"col_unshuffle", "row_r2c", "post_rotate"}}
	}
	fwd := NewEngine[T](p, Opts{Workers: workers}, true)
	inv := NewEngine[T](p, Opts{Workers: workers}, false)
	name := fmt.Sprintf("%dx%d elem %T workers %d", m, n, T(0), workers)
	for d, e := range []*Engine[T]{fwd, inv} {
		var got []string
		for i := range e.passes {
			ps := &e.passes[i]
			got = append(got, passName(ps))
			span := m // the row shuffle's rows
			switch ps.kind {
			case passTile:
				span = (n-1)/e.tileW + 1
			case passSwap:
				span = swapPairs(n, e.tileW)
			}
			checkPartition(t, name+" "+passName(ps), ps.bounds, span, parallel.Workers(workers))
		}
		if strings.Join(got, " ") != strings.Join(want[d], " ") {
			t.Errorf("%s: %s list %v, want %v", name, [...]string{"C2R", "R2C"}[d], got, want[d])
		}
	}
	// R2C undoes C2R pass by pass: entry i of its list inverts entry
	// len−1−i of C2R's over the same partition.
	if len(inv.passes) != len(fwd.passes) {
		return
	}
	inverse := map[tileMode]tileMode{tilePreRotate: tilePostRotate, tilePostRotate: tilePreRotate,
		tileShuffle: tileShuffleInv, tileShuffleInv: tileShuffle}
	for i := range inv.passes {
		f, r := fwd.passes[len(fwd.passes)-1-i], inv.passes[i]
		if r.kind != f.kind || (r.kind == passShuffle && r.c2r == f.c2r) ||
			(r.kind == passTile && r.mode != inverse[f.mode]) || !equalSlices(r.bounds, f.bounds) {
			t.Errorf("%s: R2C pass %d (%s) does not invert C2R pass %d (%s)", name, i, passName(&r), len(fwd.passes)-1-i, passName(&f))
		}
	}
}

// checkPartition checks that bounds cuts [0, span) into at most
// workers contiguous non-empty chunks.
func checkPartition(t *testing.T, name string, bounds []int, span, workers int) {
	t.Helper()
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != span {
		t.Errorf("%s: partition %v does not cover [0, %d)", name, bounds, span)
		return
	}
	if chunks := len(bounds) - 1; chunks > workers {
		t.Errorf("%s: partition %v has %d chunks for %d workers", name, bounds, chunks, workers)
	}
	for k := 1; k < len(bounds); k++ {
		if bounds[k] <= bounds[k-1] {
			t.Errorf("%s: partition %v has an empty chunk", name, bounds)
		}
	}
}

// TestPassEntryPoints runs the reproduction Pass* kernels in the order
// of a pass-by-pass replay, the pre-rotation only when gcd(m, n) > 1, at
// one worker and at two, and checks that together they transpose,
// squares included.
func TestPassEntryPoints(t *testing.T) {
	for _, sh := range [][2]int{
		{97, 101},   // coprime
		{101, 97},   // coprime, m > n
		{60, 84},    // gcd 12
		{84, 60},    // gcd 12, m > n
		{12, 4},     // b = 1
		{24, 24},    // square
		{65, 65},    // square
		{1, 17},     // one row
		{17, 1},     // one column
		{256, 4096}, // a = 1: a permutation slab
	} {
		m, n := sh[0], sh[1]
		p := cr.NewPlan(m, n)
		for _, workers := range []int{1, 2} {
			data := make([]uint64, m*n)
			for i := range data {
				data[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
			}
			want := make([]uint64, len(data))
			OutOfPlace(want, data, m, n)
			if !p.Coprime {
				PassRotatePre(data, p, DefaultBlockW, workers)
			}
			PassRowShuffle(data, p, workers)
			PassRotateP(data, p, DefaultBlockW, workers)
			PassRowPermute(data, p, DefaultBlockW, workers)
			for i := range want {
				if data[i] != want[i] {
					t.Fatalf("%dx%d workers %d: Pass* replay wrong at %d", m, n, workers, i)
				}
			}
		}
	}
}
