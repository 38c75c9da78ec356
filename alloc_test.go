// Race-detector instrumentation inserts its own allocations, so the
// exact-zero assertions only hold in uninstrumented builds.
//go:build !race

package inplace_test

import (
	"fmt"
	"testing"
	"unsafe"

	"inplace"
)

// These tests pin down the tentpole guarantee of the Planner API: once
// the scratch arena is warm, Execute performs no heap allocation at all.
// testing.AllocsPerRun runs the body once before measuring, which warms
// the arena exactly like a caller's first Execute would.

func requireZeroAllocs(t *testing.T, rows, cols int, o inplace.Options) {
	t.Helper()
	pl, err := inplace.NewPlanner[int64](rows, cols, o)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, rows*cols)
	for i := range data {
		data[i] = int64(i)
	}
	requireZeroAllocsWarm(t, fmt.Sprintf("Planner.Execute(%dx%d, %+v)", rows, cols, o), func() error {
		return pl.Execute(data)
	})
}

// requireZeroAllocsWarm fails when the warm body allocates.
func requireZeroAllocsWarm(t *testing.T, what string, body func() error) {
	t.Helper()
	allocs := testing.AllocsPerRun(5, func() {
		if err := body(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%s allocates %.1f times per run, want 0", what, allocs)
	}
}

func TestExecuteZeroAllocCacheAware(t *testing.T) {
	requireZeroAllocs(t, 512, 384, inplace.Options{Workers: 1})
}

func TestExecuteZeroAllocCacheAwareR2C(t *testing.T) {
	// rows > cols drives the heuristic to the R2C pipeline.
	requireZeroAllocs(t, 384, 512, inplace.Options{Workers: 1})
}

func TestExecuteZeroAllocSkinny(t *testing.T) {
	// ForceC2R keeps the cr plan at (100000, 8): the column passes walk
	// 100000-row columns, the direction the heuristic avoids.
	requireZeroAllocs(t, 100000, 8, inplace.Options{Workers: 1, Direction: inplace.ForceC2R})
}

func TestExecuteZeroAllocSkinnyR2C(t *testing.T) {
	requireZeroAllocs(t, 8, 100000, inplace.Options{Workers: 1, Direction: inplace.ForceR2C})
}

func TestExecuteZeroAllocBothDirections(t *testing.T) {
	// gcd 8 and m > n: the pre-rotation and the stride-table gather, in
	// either direction.
	requireZeroAllocs(t, 96, 56, inplace.Options{Workers: 1, Direction: inplace.ForceC2R})
	requireZeroAllocs(t, 96, 56, inplace.Options{Workers: 1, Direction: inplace.ForceR2C})
}

func TestExecuteZeroAllocGcdShapes(t *testing.T) {
	// gcd > 1 enables the pre-rotation pass.
	requireZeroAllocs(t, 120, 96, inplace.Options{Workers: 1})
}

func TestExecuteZeroAllocRowKernels(t *testing.T) {
	// One shape per row-shuffle kernel: the b = 1 rotation (square), the
	// a = 1 interleave in both directions, and the stride-table gather
	// on a coprime shape (the gcd shapes above run it too).
	for _, sh := range [][2]int{{256, 256}, {16, 4096}, {4096, 16}, {250, 257}} {
		requireZeroAllocs(t, sh[0], sh[1], inplace.Options{Workers: 1})
	}
}

func TestPermuteExecuteZeroAllocRank2(t *testing.T) {
	// The rank-2 [1,0] permutation routes through the same planning path
	// as Transpose: one single-slab pass on the warm 2D engine, so the
	// warm Execute must not allocate either.
	pl, err := inplace.NewPermutePlanner[int64]([]int{512, 384}, []int{1, 0}, inplace.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, 512*384)
	for i := range data {
		data[i] = int64(i)
	}
	requireZeroAllocsWarm(t, "PermutePlanner.Execute(512x384, [1,0])", func() error { return pl.Execute(data) })
}

func TestExecuteZeroAllocTuned(t *testing.T) {
	// A planner resolved through the wisdom table must keep the
	// zero-alloc steady state: wisdom only changes which plan is built,
	// never the Execute path. Tune under a 1-worker budget so the
	// recorded decision matches the Workers:1 lookups below, whatever
	// variant the measurement picks.
	defer inplace.ClearWisdom()
	for _, sh := range []struct{ rows, cols int }{{256, 192}, {20000, 6}} {
		if _, err := inplace.Tune[int64](sh.rows, sh.cols, inplace.TuneConfig{Workers: 1, Fast: true}); err != nil {
			t.Fatal(err)
		}
		requireZeroAllocs(t, sh.rows, sh.cols, inplace.Options{Workers: 1})
		requireZeroAllocs(t, sh.rows, sh.cols, inplace.Options{Workers: 1, Tuning: inplace.WisdomRequired})
	}
}

// The cached and batched entry points share one plan cache and one slab
// loop, which loops inline on one worker: warm, none of them allocates.
// The NHWC↔NCHW shapes run a multi-slab step.

func TestPermuteAxesCachedZeroAlloc(t *testing.T) {
	o := inplace.Options{Workers: 1}
	nhwc, nchw := []int{2, 8, 8, 4}, []int{2, 4, 8, 8}
	toNCHW, toNHWC := []int{0, 3, 1, 2}, []int{0, 2, 3, 1}
	data := make([]uint64, 2*8*8*4)
	requireZeroAllocsWarm(t, "cached PermuteAxes NHWC<->NCHW", func() error {
		if err := inplace.PermuteAxes(data, nhwc, toNCHW, o); err != nil {
			return err
		}
		return inplace.PermuteAxes(data, nchw, toNHWC, o)
	})
}

func TestPermuteExecuteZeroAllocMultiSlab(t *testing.T) {
	pl, err := inplace.NewPermutePlanner[uint64]([]int{2, 8, 8, 4}, []int{0, 3, 1, 2}, inplace.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Plan().Passes() == 0 {
		t.Fatalf("plan %v has no factored pass", pl.Plan())
	}
	data := make([]uint64, 2*8*8*4)
	requireZeroAllocsWarm(t, "multi-slab PermutePlanner.Execute", func() error { return pl.Execute(data) })
}

func TestTransposeBatchZeroAlloc(t *testing.T) {
	data := make([]uint64, 16*24*16)
	requireZeroAllocsWarm(t, "TransposeBatch 16 of 24x16", func() error {
		return inplace.TransposeBatch(data, 16, 24, 16, inplace.Options{Workers: 1})
	})
}

func TestTransposeElemZeroAlloc(t *testing.T) {
	// Backed by a []uint64, so the bytes are aligned for every width.
	words := make([]uint64, 48*64)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))
	o := inplace.Options{Workers: 1}
	for _, elem := range []int{1, 2, 4, 8} {
		rows := len(raw) / elem / 64
		requireZeroAllocsWarm(t, fmt.Sprintf("TransposeElem %dx64 of %d-byte elements", rows, elem), func() error {
			return inplace.TransposeElem(raw, rows, 64, elem, o)
		})
	}
}
