package core

import (
	"inplace/internal/cr"
	"inplace/internal/mathutil"
	"inplace/internal/parallel"
)

// This file implements the elementary permutation passes of Algorithm 1
// and its gather-only variant (§4.2, §4.3, §5.1). Each pass permutes the
// flat row-major m×n buffer along rows or columns only. The Engine runs
// the tiled passes of tile.go and the row kernels of rowshuffle.go; it
// reaches the closed-form row kernels here only for plans whose stride
// table would overflow int32. Everything else in this file is
// reproduction code: algorithm1C2R composes Algorithm 1 for the
// Theorem 7 test, and the ablation benchmarks time the passes one by
// one.
//
// Every pass is written as a range kernel over [lo, hi) taking its
// O(max(m,n)) scratch from the caller.

// rotateColumnsGatherRange applies a per-column rotation as a gather for
// columns [lo, hi): column j becomes col'[i] = col[(i + amount(j)) mod m].
// This is the naive formulation; see cacheaware.go for the coarse/fine
// version. divM is the plan's strength-reduced divider for m, so the
// per-column amount normalization performs no hardware division; tmp must
// hold at least m elements.
//
//xpose:hotpath
func rotateColumnsGatherRange[T any](data []T, m, n int, amount func(j int) int, divM mathutil.Divider, tmp []T, lo, hi int) {
	for j := lo; j < hi; j++ {
		r := divM.SMod(amount(j))
		if r == 0 {
			continue
		}
		for i := 0; i < m; i++ {
			src := i + r
			if src >= m {
				src -= m
			}
			tmp[i] = data[src*n+j]
		}
		for i := 0; i < m; i++ {
			data[i*n+j] = tmp[i]
		}
	}
}

// rotateColumnsGather is the one-shot parallel form of the naive column
// rotation, kept for the ablation harness and pass-level tests.
func rotateColumnsGather[T any](data []T, m, n int, amount func(j int) int, workers int) {
	divM := mathutil.NewDivider(m)
	parallel.For(n, workers, func(_, lo, hi int) {
		rotateColumnsGatherRange(data, m, n, amount, divM, make([]T, m), lo, hi)
	})
}

// rowShuffleScatterRange is the row shuffle of Algorithm 1 for rows
// [lo, hi): each row i is scattered through tmp with indices d'_i(j)
// (Equation 24). tmp must hold at least n elements.
//
//xpose:hotpath
func rowShuffleScatterRange[T any](data []T, p *cr.Plan, tmp []T, lo, hi int) {
	n := p.N
	for i := lo; i < hi; i++ {
		row := data[i*n : i*n+n]
		for j, v := range row {
			tmp[p.DPrime(i, j)] = v
		}
		copy(row, tmp[:n])
	}
}

// rowShuffleGatherRange is the gather formulation of the row shuffle
// using the closed-form inverse d'^{-1}_i (Equation 31), preferred on
// hardware where gathers outperform scatters (§4.2). No Engine runs it.
//
//xpose:hotpath
func rowShuffleGatherRange[T any](data []T, p *cr.Plan, tmp []T, lo, hi int) {
	n := p.N
	for i := lo; i < hi; i++ {
		row := data[i*n : i*n+n]
		for j := range tmp[:n] {
			tmp[j] = row[p.DPrimeInv(i, j)]
		}
		copy(row, tmp[:n])
	}
}

// rowShuffleGatherDRange gathers each row with d'_i directly; because
// gathering with a permutation's forward map applies its inverse, this is
// the row shuffle of the R2C transpose (§4.3).
//
//xpose:hotpath
func rowShuffleGatherDRange[T any](data []T, p *cr.Plan, tmp []T, lo, hi int) {
	n := p.N
	for i := lo; i < hi; i++ {
		row := data[i*n : i*n+n]
		for j := range tmp[:n] {
			tmp[j] = row[p.DPrime(i, j)]
		}
		copy(row, tmp[:n])
	}
}

// columnShuffleGatherRange applies the C2R column shuffle as a direct
// gather with s'_j (Equation 26), the single-pass formulation of
// Algorithm 1, for columns [lo, hi). tmp must hold at least m elements.
//
//xpose:hotpath
func columnShuffleGatherRange[T any](data []T, p *cr.Plan, tmp []T, lo, hi int) {
	m, n := p.M, p.N
	for j := lo; j < hi; j++ {
		for i := 0; i < m; i++ {
			tmp[i] = data[p.SPrime(i, j)*n+j]
		}
		for i := 0; i < m; i++ {
			data[i*n+j] = tmp[i]
		}
	}
}

// rowPermuteGatherNaiveRange permutes whole rows, out[i] = in[permf(i)],
// by gathering column-by-column over columns [lo, hi). The coarse/fine
// kernels replace this with whole-sub-row cycle following (§4.7). tmp
// must hold at least m elements.
//
//xpose:hotpath
func rowPermuteGatherNaiveRange[T any](data []T, m, n int, permf func(i int) int, tmp []T, lo, hi int) {
	for j := lo; j < hi; j++ {
		for i := 0; i < m; i++ {
			tmp[i] = data[permf(i)*n+j]
		}
		for i := 0; i < m; i++ {
			data[i*n+j] = tmp[i]
		}
	}
}

// rowPermuteGatherNaive is the one-shot parallel form, kept for the
// ablation harness.
func rowPermuteGatherNaive[T any](data []T, m, n int, permf func(i int) int, workers int) {
	parallel.For(n, workers, func(_, lo, hi int) {
		rowPermuteGatherNaiveRange(data, m, n, permf, make([]T, m), lo, hi)
	})
}

// algorithm1C2R is the paper's Algorithm 1, one-shot and sequential:
// the gather pre-rotation (only when gcd(m,n) > 1), the scatter row
// shuffle through d'_i and the gather column shuffle through s'_j. It is
// reproduction code for the Theorem 7 test and the ablation benchmarks;
// no Engine runs it.
func algorithm1C2R[T any](data []T, p *cr.Plan) {
	m, n := p.M, p.N
	tmp := make([]T, max(m, n))
	if !p.Coprime {
		rotateColumnsGatherRange(data, m, n, p.Rot, p.DivM(), tmp, 0, n)
	}
	rowShuffleScatterRange(data, p, tmp, 0, m)
	columnShuffleGatherRange(data, p, tmp, 0, n)
}
