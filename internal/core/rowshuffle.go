package core

import (
	"math"

	"inplace/internal/cr"
	"inplace/internal/mathutil"
)

// This file implements the row shuffle of the Engine.
// Writing j = k·b + r with k < c and r < b, Equation 24 becomes
//
//	d'_i(k·b + r) = ((i + k) mod m + c·((r·a) mod b)) mod n,
//
// since j·m = k·a·n + c·(r·a) and n = c·b. Every row and every block k
// shares the one b-entry stride walk (r·a) mod b; the row index only
// shifts it. Splitting u = (i + k) mod m into u₀ = u mod c and
// u₁ = ⌊u/c⌋ gives d = u₀ + c·((u₁ + r·a) mod b), and with
// t = u₁·a⁻¹ mod b that is u₀ + c·(((t + r)·a) mod b): a read of one
// shared table at offset t. Three shapes of plan follow:
//
//   - b = 1 (n | m): d'_i(j) = (i + j) mod n, so every row rotates
//     by i mod n. Squares have b = 1 too, but the engine runs their
//     swap sweep (swap.go) instead of the decomposition; only the
//     reproduction entry point PassRowShuffle rotates a square's rows.
//   - a = 1 (m | n: AoS records, NHWC slabs): u = (i + k) mod c and the
//     stride walk is the identity, so every row is a c×b ↔ b×c
//     interleave with its c index rotated by i — the CPU analogue of
//     staging a tile on chip (Bouverot-Dupuis & Sheeran,
//     arXiv 2306.07795). The kernels block it by destination so that
//     the c streams stay in cache.
//   - a, b > 1: the row is copied once into scratch and gathered
//     straight back through a 2b-entry int32 table, c·((s·a) mod b)
//     for R2C and (s·a⁻¹) mod b for C2R. The table is doubled, so the
//     per-block shift t indexes it without a modulus. Each row worker
//     fills it per execution with O(b) adds.
//
// Plans with a, b > 1 and n > math.MaxInt32, whose table entries would
// not fit in int32, run the closed-form kernels of passes.go instead:
// the scatter through d'_i for C2R and the gather through d'_i for R2C.

// rowKind is the row-shuffle kernel a plan's shape selects.
type rowKind int

const (
	rowRotate     rowKind = iota // b = 1: rotate each row by i mod n
	rowInterleave                // a = 1: rotated c×b ↔ b×c interleave
	rowTable                     // a, b > 1: gather through the stride table
	rowClosedForm                // a, b > 1 and n > MaxInt32: closed-form d'
)

// rowKindOf selects the row-shuffle kernel of an m×n plan with
// cofactors a = m/c and b = n/c.
func rowKindOf(a, b, n int) rowKind {
	switch {
	case b == 1:
		return rowRotate
	case a == 1:
		return rowInterleave
	case n <= math.MaxInt32:
		return rowTable
	}
	return rowClosedForm
}

// rowTableBytes is the stride table one row worker holds for an m×n
// plan: 2b int32 entries when the plan's row shuffle gathers through
// the table, else none.
func rowTableBytes(m, n int) int {
	if m <= 0 || n <= 0 {
		return 0
	}
	c := mathutil.GCD(m, n)
	if rowKindOf(m/c, n/c, n) != rowTable {
		return 0
	}
	return satMul(2*(n/c), 4)
}

// interleaveBytes bounds the destination block of the interleave
// kernels, which stays in the private cache while its c source
// streams are read.
const interleaveBytes = 16 << 10

// interleaveBlock resolves the block of the interleave kernels, in
// elements per stream, for a plan with c streams of b elements each of
// elemSize bytes: a destination block of at most 16 KiB, but at least
// one 64-byte line per stream, clamped to [1, b].
func interleaveBlock(c, b, elemSize int) int {
	es := max(elemSize, 1)
	fit := 0
	if streamBytes, ok := mathutil.CheckedMul(max(c, 1), es); ok {
		fit = interleaveBytes / streamBytes
	}
	return max(1, min(b, max(tileLineBytes/es, fit)))
}

// fillStrideTable fills the 2b-entry table with s·step mod mod for
// s < b, doubled, using adds only. R2C takes step = c·(a mod b) and
// mod = n, C2R step = a⁻¹ mod b and mod = b; both steps are below
// their modulus.
//
//xpose:hotpath
func fillStrideTable(tab []int32, step, mod int) {
	b := len(tab) / 2
	v := 0
	for s := range tab[:b] {
		tab[s] = int32(v)
		if v += step; v >= mod {
			v -= mod
		}
	}
	copy(tab[b:], tab[:b])
}

// blockStep advances u = (i + k) mod m by one, kept as u₀ = u mod c,
// u₁ = ⌊u/c⌋ < a and the table shift t = (u₁·dt) mod b, all without
// division.
//
//xpose:hotpath
func blockStep(u0, u1, t, c, a, b, dt int) (int, int, int) {
	if u0++; u0 < c {
		return u0, u1, t
	}
	if u1++; u1 == a {
		return 0, 0, 0
	}
	if t += dt; t >= b {
		t -= b
	}
	return 0, u1, t
}

// blockStart is the blockStep state of row i at k = 0: u = i < m.
//
//xpose:hotpath
func blockStart(p *cr.Plan, i, dt int) (u0, u1, t int) {
	u1, u0 = p.DivC().DivMod(i)
	return u0, u1, p.DivB().Mod(u1 * dt)
}

// tableRows runs the row shuffle of rows [lo, hi) of an a, b > 1 plan
// through the stride table tab; tmp must hold n elements. Block k of
// row i has u = (i + k) mod m = c·u₁ + u₀.
//
//   - C2R, tab = (s·a⁻¹) mod b doubled: element k·b + r moves to
//     u₀ + c·y with y = (u₁ + r·a) mod b, so destination y gathers
//     r = tab[y + t] with t = −u₁ mod b.
//   - R2C, the gather through d'_i, tab = c·((s·a) mod b) doubled:
//     element k·b + r of the result reads u₀ + tab[t + r] with
//     t = u₁·a⁻¹ mod b.
//
//xpose:hotpath
func tableRows[T any](data []T, p *cr.Plan, c2r bool, tab []int32, tmp []T, lo, hi int) {
	n, c, a, b := p.N, p.C, p.A, p.B
	dt := p.AInvB // t's step per u₁ step
	if c2r {
		dt = b - 1
	}
	u0r, u1r, tr := blockStart(p, lo, dt)
	for i := lo; i < hi; i++ {
		row := data[i*n : i*n+n]
		copy(tmp, row)
		u0, u1, t := u0r, u1r, tr
		for k := 0; k < c; k++ {
			if c2r {
				putGathered(row, u0, c, tmp[k*b:k*b+b], tab[t:t+b])
			} else {
				getGathered(row[k*b:k*b+b], tmp[u0:], tab[t:t+b])
			}
			u0, u1, t = blockStep(u0, u1, t, c, a, b, dt)
		}
		u0r, u1r, tr = blockStep(u0r, u1r, tr, c, a, b, dt)
	}
}

// interleaveRows runs the row shuffle of rows [lo, hi) of an a = 1
// plan (c = m), tmp holding n elements. C2R writes row i, read as c×b,
// as its b×c transpose with column (i + k) mod c taking source row k,
// blk rows of the b×c side at a time from c streams of blk elements;
// R2C gathers it back, blk columns of the c×b side at a time.
//
//xpose:hotpath
func interleaveRows[T any](data []T, p *cr.Plan, c2r bool, blk int, tmp []T, lo, hi int) {
	n, c, b := p.N, p.C, p.B
	if c == 1 {
		return // m = 1: the identity
	}
	for i := lo; i < hi; i++ {
		row := data[i*n : i*n+n]
		copy(tmp, row)
		for r0 := 0; r0 < b; r0 += blk {
			r1 := min(r0+blk, b)
			x := i // (i + k) mod c, with i < m = c
			for k := 0; k < c; k++ {
				if c2r {
					putStrided(row, r0*c+x, c, tmp[k*b+r0:k*b+r1])
				} else {
					getStrided(row[k*b+r0:k*b+r1], tmp, r0*c+x, c)
				}
				if x++; x == c {
					x = 0
				}
			}
		}
	}
}

// rotateRows runs the row shuffle of rows [lo, hi) of a b = 1 plan,
// where d'_i(j) = (i + j) mod n: C2R rotates row i right by i mod n,
// R2C left. Only the s wrapping elements pass through tmp, which must
// hold n elements.
//
//xpose:hotpath
func rotateRows[T any](data []T, p *cr.Plan, c2r bool, tmp []T, lo, hi int) {
	n := p.N
	s := p.DivN().Mod(lo)
	for i := lo; i < hi; i++ {
		row := data[i*n : i*n+n]
		switch {
		case s == 0:
		case c2r:
			copy(tmp, row[n-s:])
			copy(row[s:], row[:n-s])
			copy(row, tmp[:s])
		default:
			copy(tmp, row[:s])
			copy(row, row[s:])
			copy(row[n-s:], tmp[:s])
		}
		if s++; s == n {
			s = 0
		}
	}
}

// The block copies below are unrolled four ways: the row kernels spend
// most of their time in them, and unrolled row passes ran 10–40%
// faster on the perfbench inmem shapes.

// putStrided writes src[j] to dst[d + j·c] for every j.
//
//xpose:hotpath
func putStrided[T any](dst []T, d, c int, src []T) {
	j := 0
	for ; j+4 <= len(src); j += 4 {
		s := src[j : j+4 : j+4]
		dst[d] = s[0]
		dst[d+c] = s[1]
		dst[d+2*c] = s[2]
		dst[d+3*c] = s[3]
		d += 4 * c
	}
	for ; j < len(src); j++ {
		dst[d] = src[j]
		d += c
	}
}

// getStrided fills dst[j] from src[s + j·c] for every j.
//
//xpose:hotpath
func getStrided[T any](dst, src []T, s, c int) {
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		d := dst[j : j+4 : j+4]
		d[0] = src[s]
		d[1] = src[s+c]
		d[2] = src[s+2*c]
		d[3] = src[s+3*c]
		s += 4 * c
	}
	for ; j < len(dst); j++ {
		dst[j] = src[s]
		s += c
	}
}

// putGathered writes src[idx[j]] to dst[d + j·c] for every j.
//
//xpose:hotpath
func putGathered[T any](dst []T, d, c int, src []T, idx []int32) {
	j := 0
	for ; j+4 <= len(idx); j += 4 {
		x := idx[j : j+4 : j+4]
		dst[d] = src[x[0]]
		dst[d+c] = src[x[1]]
		dst[d+2*c] = src[x[2]]
		dst[d+3*c] = src[x[3]]
		d += 4 * c
	}
	for ; j < len(idx); j++ {
		dst[d] = src[idx[j]]
		d += c
	}
}

// getGathered fills dst[j] from src[idx[j]] for every j < len(idx).
//
//xpose:hotpath
func getGathered[T any](dst, src []T, idx []int32) {
	dst = dst[:len(idx)]
	j := 0
	for ; j+4 <= len(idx); j += 4 {
		x := idx[j : j+4 : j+4]
		d := dst[j : j+4 : j+4]
		d[0] = src[x[0]]
		d[1] = src[x[1]]
		d[2] = src[x[2]]
		d[3] = src[x[3]]
	}
	for ; j < len(idx); j++ {
		dst[j] = src[idx[j]]
	}
}
