package core

import (
	"math"
	"unsafe"

	"inplace/internal/cr"
	"inplace/internal/mathutil"
	"inplace/internal/parallel"
)

// This file implements the column passes of the Engine for rectangular
// plans as one-sweep tiled gathers. Every column operation of the
// decomposition permutes each column independently, and the paper gives
// each one a closed-form source row:
//
//	pre-rotation        (i + ⌊j/b⌋) mod m      (Eq. 23)
//	its inverse         (i − ⌊j/b⌋) mod m      (Eq. 36)
//	column shuffle      (q(i) + j) mod m       (Eqs. 26, 32–33: s'_j = p_j∘q)
//	its inverse         q⁻¹((i − j) mod m)     (Eqs. 34–35)
//
// A worker copies a tile of W adjacent columns × m rows into its scratch
// and writes every row back from that tile, so both the reads and the
// writes of the matrix stream whole W-element row segments while the
// per-element permutation happens in cache — the CPU analogue of staging
// a tile on chip (Bouverot-Dupuis & Sheeran, arXiv 2306.07795). The
// rotation p_j and the row permutation q fuse into one sweep, so a C2R
// or R2C makes at most three sweeps over the matrix: two tiled column
// passes and the row shuffle, or one and the row shuffle when
// gcd(m, n) = 1.
//
// A square plan runs none of these passes, nor the row shuffle: its one
// sweep swaps tile pairs through a B×B staging tile (swap.go), and
// TileWidth resolves B.
//
// The tile geometry follows what a tile touches: lines and pages, not
// index arithmetic. On a tall plan whose rows lie a page or more apart,
// every tile row is a page visit of its own, so a tile row spans four
// lines there instead of one. A wide tile stays within 16 KiB, well
// inside a 48 KiB L1d. The R2C shuffle applies q on load, as whole-row
// copies, so only the rotation is left for the write-back, whose
// diagonal gather reads a window of W contiguous tile rows that slides
// by one row per output row.

// Tile sizing: a tile row spans at least one cache line, or tilePageLines
// of them when the rows lie a page or more apart, and a wide tile stays
// within tileMaxBytes.
const (
	tileLineBytes = 64
	tilePageBytes = 4 << 10
	tilePageLines = 4
	tilePageRows  = 4096 // the most rows that take the page floor: the tile stays ≤ 1 MiB
	tileMaxBytes  = 16 << 10
)

// Swap tiles: a square plan's B×B staging tile is at most swapTileMax
// elements a side and swapStageBytes in all.
const (
	swapTileMax    = 64
	swapStageBytes = 32 << 10
)

// intBytes is the size of one rotation-amount entry.
const intBytes = int(unsafe.Sizeof(int(0)))

// TileWidth resolves the tile width of an m×n plan of elemSize-byte
// elements: the column-tile width W of the tiled column passes, or for
// a square plan the side B of the swap sweep's tiles. A positive
// blockW is taken as given. Otherwise a square plan takes B = 64,
// halved while the B×B staging tile exceeds 32 KiB, so that it stays in
// a 48 KiB L1d beside the row segments it swaps against: of B 16 to 256
// on the squares measured, 64 was the fastest at 4 and 8 bytes and
// within 16% of the fastest at 1 and 2 (EXPERIMENTS.md). Any other plan
// takes, with e = elemSize,
//
//	floor = 256/e if m ≤ 4096 and n·e ≥ 4096, else 64/e
//	W     = max(floor, min(16384/(m·e), max(m,n)/m)),
//
// a tile row of at least one 64-byte line — four when the rows lie a page
// or more apart, so each page visit moves four lines of the tile (the
// m ≤ 4096 gate keeps that tile within 1 MiB, and plans whose rows share
// pages keep one line) — a wide tile of at most 16 KiB, and on wide
// plans no wider than keeps the m×W tile within the row shuffle's
// max(m,n)-element buffer. Either way the width is clamped to
// [1, n].
func TileWidth(m, n, elemSize, blockW int) int {
	w := blockW
	if w <= 0 && m == n {
		w = swapTileMax
		for w > 1 && w*w > swapStageBytes/max(elemSize, 1) {
			w /= 2
		}
	}
	if w <= 0 {
		es := max(elemSize, 1)
		floor := tileLineBytes / es
		if m <= tilePageRows && n >= (tilePageBytes+es-1)/es { // n·e ≥ one page
			floor = tilePageLines * tileLineBytes / es
		}
		fit := 0
		if tileRow, ok := mathutil.CheckedMul(max(m, 1), es); ok {
			fit = tileMaxBytes / tileRow
		}
		w = max(floor, min(fit, max(m, n)/max(m, 1)))
	}
	return max(1, min(w, n))
}

// ScratchBytes is the scratch one execution of the engine holds for an
// m×n plan of elemSize-byte elements run by workers workers with tile
// width w (see TileWidth).
//
// A square plan's swap sweep shares out its P = ⌈⌈n/w⌉/2⌉ band pairs
// in min(workers, P) chunks or fewer, as parallel.Bounds cuts them, and
// each worker with a chunk holds one w×w staging tile: the figure is
// chunks·w²·elemSize, and 0 when one tile covers the matrix (w ≥ n).
//
// Any other plan's row passes share out the m rows, so at
// most min(workers, m) workers hold the row shuffle's n-element
// permute-through buffer and, when the plan's row shuffle gathers
// through a stride table (a, b > 1; see rowshuffle.go), its 2b int32
// entries; any worker may hold a column pass's m·w tile, in the same
// buffer, and the tile's w-entry rotation-amount array. With
// r = min(workers, m) and T = 8b bytes for a table plan, else 0, the
// figure is
//
//	r·(max(n, m·w)·elemSize + T) + (workers − r)·m·w·elemSize + workers·w·8.
//
// It saturates at math.MaxInt, which no budget admits.
func ScratchBytes(m, n, elemSize, workers, w int) int {
	workers = max(workers, 1)
	if m == n {
		w = max(w, 1)
		if w >= n {
			return 0
		}
		pairs := swapPairs(n, w)
		per := (pairs-1)/min(workers, pairs) + 1 // pairs per chunk
		chunks := (pairs-1)/per + 1
		return satMul(satMul(chunks, satMul(w, w)), elemSize)
	}
	r := min(workers, max(m, 1))
	tile := satMul(m, w)
	rowBytes := satAdd(satMul(max(n, tile), elemSize), rowTableBytes(m, n))
	b := satAdd(satMul(r, rowBytes), satMul(satMul(workers-r, tile), elemSize))
	return satAdd(b, satMul(satMul(workers, w), intBytes))
}

// PlanScratchBytes is the scratch one execution of the engine for plan p
// under options o holds with elemSize-byte elements: ScratchBytes at the
// resolved worker count and tile width. It saturates at math.MaxInt.
func PlanScratchBytes(p *cr.Plan, o Opts, elemSize int) int {
	return ScratchBytes(p.M, p.N, elemSize, parallel.Workers(o.Workers), TileWidth(p.M, p.N, elemSize, o.BlockW))
}

// satMul and satAdd multiply and add non-negative ints, saturating at
// math.MaxInt instead of wrapping.
func satMul(a, b int) int {
	if p, ok := mathutil.CheckedMul(a, b); ok {
		return p
	}
	return math.MaxInt
}

func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// tileMode selects the closed-form source row of a tiled column pass.
type tileMode int

const (
	tilePreRotate  tileMode = iota // C2R pre-rotation (Eq. 23)
	tilePostRotate                 // R2C inverse pre-rotation (Eq. 36)
	tileShuffle                    // C2R column shuffle s'_j = p_j∘q
	tileShuffleInv                 // R2C inverse column shuffle
)

// tileColumnsRange runs one tiled column pass over the column tiles
// [tlo, thi) of width w (the last tile of the matrix may be narrower).
// tile must hold m·w elements and am w entries; am is used by the
// rotations only.
//
//xpose:hotpath
func tileColumnsRange[T any](data []T, p *cr.Plan, mode tileMode, w int, tile []T, am []int, tlo, thi int) {
	m, n := p.M, p.N
	if mw, ok := mathutil.CheckedMul(m, w); !ok || len(tile) < mw || len(am) < w {
		panic("core: tile scratch smaller than m×w")
	}
	for t := tlo; t < thi; t++ {
		j0 := t * w
		tw := min(w, n-j0)
		switch mode {
		case tilePreRotate, tilePostRotate:
			rotateTile(data, p, mode == tilePostRotate, j0, tw, tile, am)
		case tileShuffle:
			shuffleTile(data, p, j0, tw, tile)
		case tileShuffleInv:
			unshuffleTile(data, p, j0, tw, tile)
		}
	}
}

// loadTile copies columns [j0, j0+tw) of the m rows into tile, packed
// with row stride tw.
//
//xpose:hotpath
func loadTile[T any](data []T, m, n, j0, tw int, tile []T) {
	for k := 0; k < m; k++ {
		copy(tile[k*tw:k*tw+tw], data[k*n+j0:k*n+j0+tw])
	}
}

// rotateTile applies the pre-rotation of the tile's columns, or its
// inverse: row i of column j gathers from row (i ± ⌊j/b⌋) mod m. The
// amount ⌊j/b⌋ is below c ≤ m and non-decreasing in j, so a tile whose
// end columns share it has one amount throughout; that tile is shifted
// by whole row segments, saving only the rows that wrap. Otherwise the
// amount changes inside the tile, which is then loaded whole: when a run
// of b columns spans at least a cache line, each row copies its runs
// whole from the tile, and otherwise it gathers per element.
//
//xpose:hotpath
func rotateTile[T any](data []T, p *cr.Plan, inverse bool, j0, tw int, tile []T, am []int) {
	m, n, b := p.M, p.N, p.B
	r := p.Rot(j0)
	if r == p.Rot(j0+tw-1) {
		g := gatherOffset(r, m, inverse)
		if g == 0 {
			return
		}
		// out[i] = in[i+g] moves rows up, so an ascending walk reads
		// every row before overwriting it; the g head rows wrap to
		// the bottom from the saved copy.
		loadTile(data, g, n, j0, tw, tile)
		for i := 0; i+g < m; i++ {
			copy(data[i*n+j0:i*n+j0+tw], data[(i+g)*n+j0:(i+g)*n+j0+tw])
		}
		for k := 0; k < g; k++ {
			i := m - g + k
			copy(data[i*n+j0:i*n+j0+tw], tile[k*tw:k*tw+tw])
		}
		return
	}
	loadTile(data, m, n, j0, tw, tile)
	var zero T
	if b*int(unsafe.Sizeof(zero)) >= tileLineBytes {
		for i := 0; i < m; i++ {
			row := data[i*n+j0 : i*n+j0+tw]
			for amt, lo := r, 0; lo < tw; amt++ {
				hi := min((amt+1)*b-j0, tw) // the run of amount amt ends here
				s := i + gatherOffset(amt, m, inverse)
				if s >= m {
					s -= m
				}
				copy(row[lo:hi], tile[s*tw+lo:s*tw+hi])
				lo = hi
			}
		}
		return
	}
	next := (r + 1) * b // first column of the next amount
	for jj := range am[:tw] {
		if j0+jj == next {
			r++
			next += b
		}
		am[jj] = gatherOffset(r, m, inverse)
	}
	for i := 0; i < m; i++ {
		row := data[i*n+j0 : i*n+j0+tw]
		for jj := range row {
			s := i + am[jj]
			if s >= m {
				s -= m
			}
			row[jj] = tile[s*tw+jj]
		}
	}
}

// gatherOffset turns a rotation amount r in [0, m) into the offset row i
// gathers from, row (i + offset) mod m: r itself, or its negation for the
// inverse rotation.
//
//xpose:hotpath
func gatherOffset(r, m int, inverse bool) int {
	if inverse && r != 0 {
		return m - r
	}
	return r
}

// qStep advances the row permutation q(i) = (i·n − ⌊i/a⌋) mod m
// (Eq. 33) from row i to row i+1 without division: q grows by n mod m,
// less one when a divides i+1. ia tracks i mod a; nm is n mod m.
//
//xpose:hotpath
func qStep(q, ia, nm, m, a int) (int, int) {
	q += nm
	if q >= m {
		q -= m
	}
	if ia++; ia == a {
		ia = 0
		if q--; q < 0 {
			q += m
		}
	}
	return q, ia
}

// shuffleTile applies the C2R column shuffle to the tile's columns: row
// i of column j gathers from row (q(i) + j) mod m, so along a row the
// source walks the tile diagonally.
//
//xpose:hotpath
func shuffleTile[T any](data []T, p *cr.Plan, j0, tw int, tile []T) {
	m, n, a := p.M, p.N, p.A
	divM := p.DivM()
	nm, j0m := divM.Mod(n), divM.Mod(j0)
	mtw := m * tw
	loadTile(data, m, n, j0, tw, tile)
	q, ia := 0, 0 // q(i) and i mod a
	for i := 0; i < m; i++ {
		s := q + j0m
		if s >= m {
			s -= m
		}
		k := s * tw // offset of source row s in the tile
		row := data[i*n+j0 : i*n+j0+tw]
		for jj := range row {
			row[jj] = tile[k+jj]
			k += tw
			if k == mtw {
				k = 0
			}
		}
		q, ia = qStep(q, ia, nm, m, a)
	}
}

// unshuffleTile applies the R2C column shuffle, the inverse of
// shuffleTile: row i of column j gathers from q⁻¹((i − j) mod m), which
// is to say source row k lands in row (q(k) + j) mod m. The two factors
// are undone one at a time. The load applies q as whole-row copies,
// source row k into tile row q(k); then row i of column j takes tile row
// (i − j) mod m, so along a row the source walks the tile diagonally
// upwards, through a window of tw contiguous tile rows that slides down
// by one as i advances.
//
//xpose:hotpath
func unshuffleTile[T any](data []T, p *cr.Plan, j0, tw int, tile []T) {
	m, n, a := p.M, p.N, p.A
	divM := p.DivM()
	nm, j0m := divM.Mod(n), divM.Mod(j0)
	mtw := m * tw
	q, ia := 0, 0 // q(k) and k mod a
	for k := 0; k < m; k++ {
		copy(tile[q*tw:q*tw+tw], data[k*n+j0:k*n+j0+tw])
		q, ia = qStep(q, ia, nm, m, a)
	}
	for i := 0; i < m; i++ {
		s := i - j0m
		if s < 0 {
			s += m
		}
		x := s * tw // x+jj indexes tile row (i − j0 − jj) mod m
		row := data[i*n+j0 : i*n+j0+tw]
		for jj := range row {
			row[jj] = tile[x+jj]
			if x -= tw; x < 0 {
				x += mtw
			}
		}
	}
}
