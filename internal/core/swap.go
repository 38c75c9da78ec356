package core

// This file implements the Engine's one sweep for square plans. When
// m = n the transpose is an involution: element (i, j) and element
// (j, i) trade places, so every cycle has length one or two and the
// decomposition's three sweeps reduce to independent swaps (Yang et
// al., arXiv 1204.1958). C2R and R2C are then the same permutation, and
// both directions run this sweep.
//
// The matrix is cut into B×B tiles, B the tile width. The upper
// triangle of tile row k holds its diagonal tile, transposed in place,
// and the tiles (k, j), j > k, each swapped with its mirror (j, k). A
// tile pair swaps through a B×B staging tile in the worker's frame:
// tile (j, k)'s rows load into the stage, each row segment of tile
// (k, j) swaps against a stage column, and the stage's rows store back.
// Every access to the matrix then streams a whole row segment, and the
// strided walk stays inside the contiguous stage, in L1. A direct swap
// of the two tiles walks one of them down a column instead, and on
// power-of-two row strides that column's lines share a few cache sets.
//
// Workers take band pairs: pair k is tile rows k and T−1−k of the T
// tile rows, whose triangle rows hold T−k and k+1 tiles, so every pair
// but a lone middle row carries T+1 tiles.

// swapPairs is the number of band pairs of an n×n plan, n ≥ 1, in b×b
// tiles: ⌈T/2⌉ with T = ⌈n/b⌉ tile rows.
func swapPairs(n, b int) int {
	t := (n-1)/b + 1
	return (t + 1) / 2
}

// swapBands runs the square transpose of the n×n matrix over the band
// pairs [lo, hi) in b×b tiles, staging through stage, which holds b·b
// elements, or none when one tile covers the matrix.
//
//xpose:hotpath
func swapBands[T any](data []T, n, b int, stage []T, lo, hi int) {
	t := (n-1)/b + 1
	for k := lo; k < hi; k++ {
		swapBand(data, n, b, stage, k)
		if k2 := t - 1 - k; k2 != k {
			swapBand(data, n, b, stage, k2)
		}
	}
}

// swapBand transposes the upper triangle of tile row k: its diagonal
// tile in place, then each tile to its right against its mirror below.
//
//xpose:hotpath
func swapBand[T any](data []T, n, b int, stage []T, k int) {
	i0 := k * b
	h := min(b, n-i0)
	transposeDiagonal(data, n, i0, h)
	for j0 := i0 + b; j0 < n; j0 += b {
		swapTilePair(data, n, i0, j0, h, min(b, n-j0), stage)
	}
}

// transposeDiagonal transposes the h×h diagonal tile at (i0, i0) in
// place, swapping each element below the diagonal with its mirror.
//
//xpose:hotpath
func transposeDiagonal[T any](data []T, n, i0, h int) {
	for r := 1; r < h; r++ {
		row := data[(i0+r)*n+i0 : (i0+r)*n+i0+r]
		x := i0*n + i0 + r // element (i0, i0+r), the mirror of row[0]
		for c := range row {
			row[c], data[x] = data[x], row[c]
			x += n
		}
	}
}

// swapTilePair swaps the h×w tile at rows [i0, i0+h), columns
// [j0, j0+w) with the transpose of its w×h mirror at rows [j0, j0+w),
// columns [i0, i0+h), through stage. The mirror loads into the stage
// with row stride h, so stage column r is the transpose of the tile's
// row r: each tile row swaps against its stage column, after which the
// stage holds the mirror's new rows.
//
//xpose:hotpath
func swapTilePair[T any](data []T, n, i0, j0, h, w int, stage []T) {
	for c := 0; c < w; c++ {
		copy(stage[c*h:c*h+h], data[(j0+c)*n+i0:(j0+c)*n+i0+h])
	}
	for r := 0; r < h; r++ {
		swapColumn(data[(i0+r)*n+j0:(i0+r)*n+j0+w], stage, r, h)
	}
	for c := 0; c < w; c++ {
		copy(data[(j0+c)*n+i0:(j0+c)*n+i0+h], stage[c*h:c*h+h])
	}
}

// swapColumn swaps row[c] with stage[x + c·h] for every c. Unrolled
// four ways, like the row kernels' block copies.
//
//xpose:hotpath
func swapColumn[T any](row, stage []T, x, h int) {
	c := 0
	for ; c+4 <= len(row); c += 4 {
		r := row[c : c+4 : c+4]
		s := stage[x : x+3*h+1 : x+3*h+1]
		r[0], s[0] = s[0], r[0]
		r[1], s[h] = s[h], r[1]
		r[2], s[2*h] = s[2*h], r[2]
		r[3], s[3*h] = s[3*h], r[3]
		x += 4 * h
	}
	for ; c < len(row); c++ {
		row[c], stage[x] = stage[x], row[c]
		x += h
	}
}
