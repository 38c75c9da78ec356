// Package core implements the in-place transposition engine of the
// paper. Engine runs the C2R and R2C transpositions in at most three
// sweeps over the matrix, two when gcd(m,n) = 1: the column operations
// as one-sweep tiled gathers through the closed-form source rows, with
// the column shuffle's rotation and row permutation fused (§4.6, §4.7,
// §5.2; tile.go), and the row shuffle as a rotation, a blocked
// interleave or a gather through one shared stride table, by shape
// (rowshuffle.go). With the planner's direction heuristic, skinny
// AoS↔SoA shapes keep every column operation within their tiny
// dimension, which is the §6.1 specialization.
//
// The package also keeps reproduction code: the elementary passes of
// Algorithm 1 and its gather-only form (passes.go, composed by
// algorithm1C2R; the Engine borrows only the closed-form row kernels,
// for plans whose stride table would overflow int32), and the
// coarse/fine column kernels behind the Pass* entry points
// (cacheaware.go).
//
// Every transposition operates on a flat slice holding a row-major m×n
// array and permutes it so that afterwards the same slice holds the
// row-major n×m transpose (Theorem 1: the C2R permutation, applied with
// row-major indexing, linearizes the transpose). R2C applies the exact
// inverse permutation.
package core

import "inplace/internal/mathutil"

// OutOfPlace writes the transpose of the row-major m×n array src into
// dst (row-major n×m) and is the correctness oracle for every in-place
// engine. dst and src must not alias.
func OutOfPlace[T any](dst, src []T, m, n int) {
	mn, ok := mathutil.CheckedMul(m, n)
	if !ok || len(src) != mn || len(dst) != mn {
		panic("core: OutOfPlace length mismatch")
	}
	for i := 0; i < m; i++ {
		row := src[i*n : i*n+n]
		for j, v := range row {
			dst[j*m+i] = v
		}
	}
}

// GatherC2R materializes the out-of-place C2R permutation of Equation 11:
// dst[i*n+j] = src at (s(i,j), c(i,j)). Used by tests to validate that
// the in-place pipeline realizes exactly this permutation.
func GatherC2R[T any](dst, src []T, m, n int) {
	mn, ok := mathutil.CheckedMul(m, n)
	if !ok || len(src) != mn || len(dst) != mn {
		panic("core: GatherC2R length mismatch")
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			l := i*n + j
			s, c := l%m, l/m
			dst[l] = src[s*n+c]
		}
	}
}

// GatherR2C materializes the out-of-place R2C permutation of Equation 12:
// dst[i*n+j] = src at (t(i,j), d(i,j)). It is the inverse of GatherC2R.
func GatherR2C[T any](dst, src []T, m, n int) {
	mn, ok := mathutil.CheckedMul(m, n)
	if !ok || len(src) != mn || len(dst) != mn {
		panic("core: GatherR2C length mismatch")
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			l := i + j*m
			dst[i*n+j] = src[(l/n)*n+l%n]
		}
	}
}
