// Package cr implements the index algebra of the C2R/R2C decomposition
// (paper Sections 3 and 4): the destination-column bijection d', its
// closed-form inverse, the pre- and post-rotation amounts, and the
// factorization of the column shuffle s' into a column rotation p and a
// row permutation q, together with all published inverses (Equations
// 22–36).
//
// A Plan captures an (m, n) shape once — gcd, cofactors, modular inverses
// and the fixed-point reciprocals used for arithmetic strength reduction
// (§4.4) — and is then shared by every kernel that transposes that shape.
package cr

import (
	"fmt"

	"inplace/internal/mathutil"
)

// Plan holds the shape-dependent constants of the decomposition for an
// m×n array: c = gcd(m, n), a = m/c, b = n/c, the modular multiplicative
// inverses a⁻¹ (mod b) and b⁻¹ (mod a), and strength-reduced dividers for
// every invariant denominator the index maps use.
type Plan struct {
	M, N    int // rows, columns
	Size    int // m*n, proven not to overflow int by NewPlan
	C       int // gcd(m, n)
	A, B    int // m/c, n/c
	AInvB   int // mmi(a, b): a * AInvB ≡ 1 (mod b); 0 when b == 1
	BInvA   int // mmi(b, a): b * BInvA ≡ 1 (mod a); 0 when a == 1
	Coprime bool

	divM, divN, divA, divB, divC mathutil.Divider
}

// NewPlan computes the constants for an m×n array. It panics if either
// dimension is non-positive: a transposition plan is meaningless for
// empty shapes, and the public API validates dimensions before planning.
func NewPlan(m, n int) *Plan {
	if m <= 0 || n <= 0 {
		panic(fmt.Sprintf("cr: invalid shape %dx%d", m, n))
	}
	size, ok := mathutil.CheckedMul(m, n)
	if !ok {
		panic(fmt.Sprintf("cr: shape %dx%d overflows int", m, n))
	}
	c := mathutil.GCD(m, n)
	a, b := m/c, n/c
	aInv, ok := mathutil.ModInverse(a, b)
	if !ok {
		panic("cr: a and b must be coprime") // unreachable: a=m/gcd, b=n/gcd
	}
	bInv, ok := mathutil.ModInverse(b, a)
	if !ok {
		panic("cr: b and a must be coprime") // unreachable
	}
	return &Plan{
		M: m, N: n, Size: size, C: c, A: a, B: b,
		AInvB: aInv, BInvA: bInv,
		Coprime: c == 1,
		divM:    mathutil.NewDivider(m),
		divN:    mathutil.NewDivider(n),
		divA:    mathutil.NewDivider(a),
		divB:    mathutil.NewDivider(b),
		divC:    mathutil.NewDivider(c),
	}
}

// Transposed returns the plan for the transposed shape (n×m).
func (p *Plan) Transposed() *Plan { return NewPlan(p.N, p.M) }

// DivM returns the strength-reduced divider for the row count m, for
// kernels that normalize rotation amounts modulo m without a hardware
// divide (§4.4).
func (p *Plan) DivM() mathutil.Divider { return p.divM }

// DivN returns the strength-reduced divider for the column count n.
func (p *Plan) DivN() mathutil.Divider { return p.divN }

// DivB returns the strength-reduced divider for b = n/c.
func (p *Plan) DivB() mathutil.Divider { return p.divB }

// DivC returns the strength-reduced divider for c = gcd(m, n).
func (p *Plan) DivC() mathutil.Divider { return p.divC }

// String summarizes the plan constants.
func (p *Plan) String() string {
	return fmt.Sprintf("Plan(%dx%d c=%d a=%d b=%d)", p.M, p.N, p.C, p.A, p.B)
}

// --- Pre-rotation (Equations 23 and 36) ---

// Rot returns the pre-rotation amount for column j: ⌊j/b⌋.
//
//xpose:hotpath
func (p *Plan) Rot(j int) int { return p.divB.Div(j) }

// RGather is Equation 23: during the C2R pre-rotation, element i of the
// rotated column j gathers from row (i + ⌊j/b⌋) mod m.
//
//xpose:hotpath
func (p *Plan) RGather(i, j int) int {
	v := i + p.divB.Div(j)
	if v >= p.M {
		v -= p.M
	}
	return v
}

// RInvGather is Equation 36: the R2C post-rotation gathers element i of
// column j from row (i - ⌊j/b⌋) mod m.
//
//xpose:hotpath
func (p *Plan) RInvGather(i, j int) int {
	v := i - p.divB.Div(j)
	if v < 0 {
		v += p.M
	}
	return v
}

// --- Row shuffle (Equations 22, 24 and 31) ---

// D is Equation 22: the destination column of element j in row i before
// the conflict-removing pre-rotation, d_i(j) = (i + j*m) mod n. It is
// periodic with period b (Lemma 1) and bijective only when gcd(m,n) = 1.
//
//xpose:hotpath
func (p *Plan) D(i, j int) int { return p.divN.Mod(i + j*p.M) }

// DPrime is Equation 24: the destination column of element j in row i
// after pre-rotation, d'_i(j) = ((i + ⌊j/b⌋) mod m + j*m) mod n. Theorem 3
// proves d'_i is a bijection on [0, n) for every fixed i.
//
//xpose:hotpath
func (p *Plan) DPrime(i, j int) int {
	r := i + p.divB.Div(j)
	if r >= p.M {
		r = p.divM.Mod(r)
	}
	return p.divN.Mod(r + j*p.M)
}

// F is the helper function of §4.2 used by the closed-form inverse of d':
//
//	f(i,j) = j + i(n-1)       if i - (j mod c) + c <= m
//	f(i,j) = j + i(n-1) + m   otherwise.
//
//xpose:hotpath
func (p *Plan) F(i, j int) int {
	v := j + i*(p.N-1)
	if i-p.divC.Mod(j)+p.C > p.M {
		v += p.M
	}
	return v
}

// DPrimeInv is Equation 31, the gather formulation of the row shuffle:
// d'^{-1}_i(j) = (a^{-1} ⌊f(i,j)/c⌋) mod b + (f(i,j) mod c) · b.
//
//xpose:hotpath
func (p *Plan) DPrimeInv(i, j int) int {
	f := p.F(i, j)
	q, r := p.divC.DivMod(f)
	return p.divB.Mod(p.AInvB*q) + r*p.B
}

// --- Column shuffle (Equations 26, 32–35) ---

// SPrime is Equation 26: the source row for element i of column j in the
// C2R column shuffle, s'_j(i) = (j + i*n - ⌊i/a⌋) mod m.
//
//xpose:hotpath
func (p *Plan) SPrime(i, j int) int {
	return p.divM.Mod(j + i*p.N - p.divA.Div(i))
}

// PJ is Equation 32: the column-rotation component of the column shuffle,
// p_j(i) = (i + j) mod m. Gathering with p_j then with q reproduces s'_j.
//
//xpose:hotpath
func (p *Plan) PJ(i, j int) int {
	v := i + j
	if v >= p.M {
		v = p.divM.Mod(v)
	}
	return v
}

// PJInv is Equation 35: the inverse rotation gather, (i - j) mod m.
// j ranges over columns and may exceed m, so the difference can be an
// arbitrarily negative multiple of m.
//
//xpose:hotpath
func (p *Plan) PJInv(i, j int) int {
	v := i - j
	if v >= 0 {
		if v >= p.M {
			v = p.divM.Mod(v)
		}
		return v
	}
	v = p.M - p.divM.Mod(-v)
	if v == p.M {
		v = 0
	}
	return v
}

// Q is Equation 33: the row-permutation component of the column shuffle,
// q(i) = (i*n - ⌊i/a⌋) mod m, applied identically to every column.
//
//xpose:hotpath
func (p *Plan) Q(i int) int {
	return p.divM.Mod(i*p.N - p.divA.Div(i))
}

// QInv is Equation 34: the closed-form inverse row permutation,
// q^{-1}(i) = (⌊(c-1+i)/c⌋ · b^{-1}) mod a + (((c-1)·i) mod c) · a.
//
//xpose:hotpath
func (p *Plan) QInv(i int) int {
	return p.divA.Mod(p.divC.Div(p.C-1+i)*p.BInvA) + p.divC.Mod((p.C-1)*i)*p.A
}
