package core

import (
	"inplace/internal/cr"
	"inplace/internal/mathutil"
	"inplace/internal/parallel"
	"inplace/internal/perm"
)

// This file implements the paper's cache-aware column operations of
// §4.6 and §4.7 as reproduction kernels: the Pass* entry points (whose
// pass-by-pass replay profiles the decomposition) and the ablation
// benchmarks run them, and no Engine does — the Engine runs the tiled
// passes of tile.go. Column rotations are split into a coarse phase —
// rotating whole cache-line-wide sub-rows by a per-group common amount
// via the analytic rotation cycles — and a fine phase that applies the
// small residual rotations with a single forward sweep over
// bounded-lookahead bands. The row permute moves whole sub-rows along
// precomputed cycles of q.

// groupScratch is the coarse/fine rotation's per-chunk scratch: the
// group amounts and residuals, the sub-row spare, and the fine phase's
// head band, which grows to the widest band met.
type groupScratch[T any] struct {
	am, res []int
	spare   []T
	saved   []T
}

func newGroupScratch[T any](blockW int) *groupScratch[T] {
	return &groupScratch[T]{am: make([]int, blockW), res: make([]int, blockW), spare: make([]T, blockW)}
}

// savedBuf returns the head-band buffer of at least n elements.
func (sc *groupScratch[T]) savedBuf(n int) []T {
	if cap(sc.saved) < n {
		sc.saved = make([]T, n)
	}
	return sc.saved[:n]
}

// rotateGroupsRange rotates column j up by amount(j) for every column of
// the groups [glo, ghi), processing groups of up to blockW adjacent
// columns together: a coarse whole-sub-row rotation by a group-common
// amount followed by a fine forward sweep applying the bounded
// residuals. divM is the plan's strength-reduced divider for m, so the
// per-column amount normalization performs no hardware division. Groups
// are independent, so any chunk of groups can run in parallel with any
// other.
//
//xpose:hotpath
func rotateGroupsRange[T any](data []T, m, n int, amount func(j int) int, divM mathutil.Divider, blockW int, sc *groupScratch[T], glo, ghi int) {
	am, res, spare := sc.am[:blockW], sc.res[:blockW], sc.spare[:blockW]
	for g := glo; g < ghi; g++ {
		j0 := g * blockW
		j1 := j0 + blockW
		if j1 > n {
			j1 = n
		}
		w := j1 - j0
		for j := j0; j < j1; j++ {
			am[j-j0] = divM.SMod(amount(j))
		}
		// Pick the coarse amount so that every residual
		// (am - k) mod m stays below the band bound. The paper's
		// rotation amount functions are monotone across a group, so
		// either endpoint works; fall back to per-column rotation
		// otherwise (only possible for degenerate tiny m).
		band := 0
		ok := false
		var k int
		for _, cand := range [2]int{am[0], am[w-1]} {
			k = cand
			band = 0
			ok = true
			for jj := 0; jj < w; jj++ {
				r := am[jj] - k
				if r < 0 {
					r += m
				}
				res[jj] = r
				if r > band {
					band = r
				}
			}
			if band < m && band <= 2*blockW {
				break
			}
			ok = false
		}
		if !ok {
			// Degenerate group: rotate each column independently.
			for jj := 0; jj < w; jj++ {
				perm.RotateStrided(data, j0+jj, n, m, am[jj])
			}
			continue
		}
		if k != 0 {
			perm.RotateChunksStrided(data, j0, n, w, m, k, spare)
		}
		if band == 0 {
			continue
		}
		// Fine phase: forward sweep, out[i][j] = in[(i+res)%m][j].
		// Writing row i only consumes rows >= i, except wrapped reads
		// near the bottom, which come from the saved head band.
		saved := sc.savedBuf(band * w)
		for r := 0; r < band; r++ {
			copy(saved[r*w:r*w+w], data[r*n+j0:r*n+j1])
		}
		for i := 0; i < m; i++ {
			row := data[i*n+j0 : i*n+j1]
			for jj := 0; jj < w; jj++ {
				sr := i + res[jj]
				if sr < m {
					row[jj] = data[sr*n+j0+jj]
				} else {
					row[jj] = saved[(sr-m)*w+jj]
				}
			}
		}
	}
}

// rotateColumnsCacheAware is the one-shot parallel form of the
// coarse/fine rotation, kept for the ablation harness and the pass-level
// profiling entry points.
func rotateColumnsCacheAware[T any](data []T, m, n int, amount func(j int) int, blockW, workers int) {
	if m <= 1 || n == 0 {
		return
	}
	divM := mathutil.NewDivider(m)
	groups := (n + blockW - 1) / blockW
	parallel.For(groups, workers, func(_, glo, ghi int) {
		rotateGroupsRange(data, m, n, amount, divM, blockW, newGroupScratch[T](blockW), glo, ghi)
	})
}

// rowPermuteWideRange permutes whole rows, out[i] = in[p[i]], for the
// column groups [glo, ghi): every group of up to blockW adjacent columns
// walks all cycles over its own column range with whole-sub-row moves
// (§4.7). spare must hold at least min(blockW, n) elements.
//
//xpose:hotpath
func rowPermuteWideRange[T any](data []T, n, blockW int, p perm.P, leaders, lengths []int, spare []T, glo, ghi int) {
	for g := glo; g < ghi; g++ {
		j0 := g * blockW
		j1 := j0 + blockW
		if j1 > n {
			j1 = n
		}
		perm.GatherChunksStrided(data, j0, n, j1-j0, p, leaders, lengths, spare)
	}
}

// rowPermuteNarrowRange permutes whole rows for the cycles led by
// leaders[lo:hi], each worker moving full n-element rows: the row
// permute of matrices too narrow to split by column. spare must hold at
// least n elements.
//
//xpose:hotpath
func rowPermuteNarrowRange[T any](data []T, n int, p perm.P, leaders, lengths []int, spare []T, lo, hi int) {
	perm.GatherChunksStrided(data, 0, n, n, p, leaders[lo:hi], lengths[lo:hi], spare)
}

// rowPermuteCycles permutes whole rows, out[i] = in[permf(i)], by
// following the cycles of the permutation with whole-sub-row moves
// (§4.7). Wide matrices parallelize across column groups; narrow ones
// across cycles. One-shot form: recomputes the cycle decomposition per
// call; the Engine path uses the schedule's cached descriptors instead.
func rowPermuteCycles[T any](data []T, m, n int, permf func(i int) int, blockW, workers int) {
	if m <= 1 || n == 0 {
		return
	}
	p := perm.FromFunc(m, permf)
	leaders, lengths := p.Leaders()
	if len(leaders) == 0 {
		return
	}
	nw := parallel.Workers(workers)
	if n >= nw*blockW || len(leaders) == 1 {
		// Wide: split columns into groups; every worker walks all cycles
		// over its own column range.
		groups := (n + blockW - 1) / blockW
		parallel.For(groups, workers, func(_, glo, ghi int) {
			rowPermuteWideRange(data, n, blockW, p, leaders, lengths, make([]T, blockW), glo, ghi)
		})
		return
	}
	// Narrow: distribute whole cycles across workers; each moves full
	// rows.
	parallel.For(len(leaders), workers, func(_, lo, hi int) {
		rowPermuteNarrowRange(data, n, p, leaders, lengths, make([]T, n), lo, hi)
	})
}

// Pass entry points exported for pass-level profiling and the ablation
// harness in cmd and bench code.

// PassRotatePre runs the C2R pre-rotation pass in isolation.
func PassRotatePre[T any](data []T, p *cr.Plan, blockW, workers int) {
	rotateColumnsCacheAware(data, p.M, p.N, p.Rot, blockW, workers)
}

// PassRowShuffle runs the C2R row shuffle pass in isolation, with the
// kernel the Engine runs for p's shape (rowshuffle.go).
func PassRowShuffle[T any](data []T, p *cr.Plan, workers int) {
	e := NewEngine[T](NewSchedule(p, Opts{Workers: workers}))
	e.shufflePass(data, newExecState[T](e.s), true)
}

// PassRotateP runs the column-shuffle rotation component in isolation.
func PassRotateP[T any](data []T, p *cr.Plan, blockW, workers int) {
	rotateColumnsCacheAware(data, p.M, p.N, func(j int) int { return j }, blockW, workers)
}

// PassRowPermute runs the column-shuffle row-permutation component in
// isolation.
func PassRowPermute[T any](data []T, p *cr.Plan, blockW, workers int) {
	rowPermuteCycles(data, p.M, p.N, p.Q, blockW, workers)
}
