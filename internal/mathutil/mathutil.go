// Package mathutil provides the integer arithmetic substrate used by the
// in-place transposition algorithm: greatest common divisors, modular
// multiplicative inverses, and strength-reduced division by invariant
// integers (paper §4.4, after Warren's "Hacker's Delight").
//
// All index arithmetic in the transposition kernels reduces to repeated
// division and modulus by a handful of invariant denominators (m, n, a, b,
// c).  Divider converts those into a multiply-high and a shift, amortizing
// the reciprocal computation across the whole transpose exactly as the
// paper describes.
package mathutil

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// GCD returns the greatest common divisor of a and b.
// GCD(0, 0) is defined as 0.
func GCD(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ExtGCD returns g = gcd(a, b) along with Bézout coefficients x, y such
// that a*x + b*y = g.
func ExtGCD(a, b int) (g, x, y int) {
	if b == 0 {
		return a, 1, 0
	}
	g, x1, y1 := ExtGCD(b, a%b)
	return g, y1, x1 - (a/b)*y1
}

// ModInverse returns the modular multiplicative inverse of x modulo y,
// i.e. the unique v in [0, y) with (x*v) mod y == 1, and ok reporting
// whether the inverse exists (x and y must be coprime, y >= 1).
//
// By convention ModInverse(x, 1) = 0, ok = true: modulo 1 every product is
// congruent to 0, which is the representative the paper's Equations 31 and
// 34 rely on when a or b equals 1.
func ModInverse(x, y int) (inv int, ok bool) {
	if y < 1 {
		return 0, false
	}
	if y == 1 {
		return 0, true
	}
	x %= y
	if x < 0 {
		x += y
	}
	g, v, _ := ExtGCD(x, y)
	if g != 1 {
		return 0, false
	}
	v %= y
	if v < 0 {
		v += y
	}
	return v, true
}

// Divider performs strength-reduced unsigned division and modulus by a
// fixed positive divisor (paper §4.4).  The divisor's fixed-point
// reciprocal is computed once; each Div is then a 64x64->128 multiply and
// a shift, and each Mod an additional multiply and subtract.
//
// The fast path is exact for every dividend up to Divider.limit, which for
// all divisors arising from matrix dimensions far exceeds m*n; dividends
// beyond the limit (possible only for pathological divisors near 2^63)
// fall back to hardware division, preserving correctness unconditionally.
type Divider struct {
	d     uint64 // divisor
	magic uint64 // ceil(2^64 / d) for the multiply-high path
	shift uint   // log2(d) when d is a power of two
	limit uint64 // largest dividend for which the fast path is exact
	pow2  bool
}

// NewDivider returns a Divider for divisor d. It panics if d <= 0, since a
// transposition plan never divides by a non-positive dimension.
func NewDivider(d int) Divider {
	if d <= 0 {
		panic("mathutil: NewDivider requires a positive divisor")
	}
	ud := uint64(d)
	if ud&(ud-1) == 0 {
		return Divider{d: ud, shift: uint(bits.TrailingZeros64(ud)), pow2: true, limit: ^uint64(0)}
	}
	// magic = floor(2^64/d) + 1; excess e = magic*d - 2^64 lies in (0, d].
	// floor(x/d) == hi64(magic*x) exactly for all x with x*e < 2^64.
	magic := ^uint64(0)/ud + 1
	e := magic * ud // wraps: equals magic*d - 2^64
	return Divider{d: ud, magic: magic, limit: (^uint64(0)) / e}
}

// D returns the divisor.
func (v Divider) D() int { return int(v.d) }

// Div returns x / v.d for non-negative x.
func (v Divider) Div(x int) int {
	ux := uint64(x)
	if v.pow2 {
		return int(ux >> v.shift)
	}
	if ux <= v.limit {
		hi, _ := bits.Mul64(v.magic, ux)
		return int(hi)
	}
	return int(ux / v.d)
}

// Mod returns x % v.d for non-negative x.
func (v Divider) Mod(x int) int {
	return x - v.Div(x)*int(v.d)
}

// DivMod returns (x / v.d, x % v.d) for non-negative x.
func (v Divider) DivMod(x int) (q, r int) {
	q = v.Div(x)
	return q, x - q*int(v.d)
}

// PosMod returns x mod d in [0, d), accepting negative x whose magnitude
// is less than d (the only negative operands the index maps produce).
func (v Divider) PosMod(x int) int {
	if x >= 0 {
		return v.Mod(x)
	}
	return x + int(v.d)
}

// SMod returns the floor modulus x mod d in [0, d) for any int x,
// including negative x of arbitrary magnitude. It is the strength-reduced
// replacement for the `((x % d) + d) % d` normalization idiom that the
// rotation-amount paths use on raw amounts.
func (v Divider) SMod(x int) int {
	if x >= 0 {
		return v.Mod(x)
	}
	r := v.Mod(-x)
	if r == 0 {
		return 0
	}
	return int(v.d) - r
}

// CheckedMul returns a*b and reports whether the product of two
// non-negative operands fits in int without overflow. It is the guard the
// public validation paths use before trusting rows*cols-shaped index
// algebra; negative operands report ok = false, as no shape or length is
// ever negative.
func CheckedMul(a, b int) (int, bool) {
	if a < 0 || b < 0 {
		return 0, false
	}
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// ErrSize reports a byte size ParseSize rejects.
var ErrSize = errors.New("bad size")

// ParseSize parses a byte size given in bytes or with a k, m or g suffix
// (KiB, MiB, GiB; either case, surrounding space ignored), as the CLIs
// take their budgets. Negative sizes and sizes past math.MaxInt64 bytes
// are errors wrapping ErrSize, not wrapped values.
func ParseSize(spec string) (int64, error) {
	s := strings.ToLower(strings.TrimSpace(spec))
	mul := int64(1)
	switch {
	case strings.HasSuffix(s, "k"):
		mul, s = 1<<10, strings.TrimSuffix(s, "k")
	case strings.HasSuffix(s, "m"):
		mul, s = 1<<20, strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "g"):
		mul, s = 1<<30, strings.TrimSuffix(s, "g")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w %q: %v", ErrSize, spec, err)
	}
	if n < 0 || n > math.MaxInt64/mul {
		return 0, fmt.Errorf("%w %q: want 0 to %d bytes", ErrSize, spec, int64(math.MaxInt64))
	}
	return n * mul, nil
}
