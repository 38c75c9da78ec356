package inplace

import (
	"bytes"
	"fmt"
	"testing"
)

// A square transpose is an involution, and every square plan runs the
// engine's one swap sweep whatever the direction. These tests hold it
// to the element-level reference over odd, prime, 2^k and 2^k ± 1
// sides from 1 to about 3000, every element width, worker count and
// direction.

// squareSides are the sides every width, worker count and direction
// runs on, those past 513 only outside short mode; squareSidesLarge,
// skipped in short mode, run a rotation of workers and directions on
// every width.
var (
	squareSides = []int{
		1, 2, 3, 5, 7, 8, 13, 16, 17, 31, 32, 33, 63, 64, 65, 97,
		127, 128, 129, 255, 256, 257, 509, 511, 512, 513, 1000, 1023, 1024, 1025,
	}
	squareSidesLarge = []int{2047, 2048, 2049, 2896, 2999}
)

func TestSquaresAgainstReference(t *testing.T) {
	dirs := []Direction{HeuristicDirection, ForceC2R, ForceR2C}
	workers := []int{1, 2, 4}
	for _, n := range squareSides {
		if n > 513 && testing.Short() {
			return
		}
		for _, elem := range []int{1, 2, 4, 8} {
			for _, d := range dirs {
				for _, w := range workers {
					squareCase(t, n, elem, Options{Direction: d, Workers: w, Tuning: WisdomOff})
				}
			}
		}
	}
	k := 0 // the large cases step through all nine direction × worker pairs
	for _, n := range squareSidesLarge {
		for _, elem := range []int{1, 2, 4, 8} {
			squareCase(t, n, elem, Options{Direction: dirs[k%3], Workers: workers[k/3%3], Tuning: WisdomOff})
			k++
		}
	}
}

// squareCase transposes a patterned n×n matrix of elem-byte elements
// through TransposeElem, checks it against the reference, and
// transposes it back on the same cached plan: a stale staging tile
// would corrupt only the second run.
func squareCase(t *testing.T, n, elem int, o Options) {
	t.Helper()
	raw := offsetBytes(n*n*elem, 0)
	orig := append([]byte(nil), raw...)
	name := fmt.Sprintf("%dx%d elem %d %+v", n, n, elem, o)
	if err := TransposeElem(raw, n, n, elem, o); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := raw[(i*n+j)*elem : (i*n+j+1)*elem]
			if want := orig[(j*n+i)*elem : (j*n+i+1)*elem]; !bytes.Equal(got, want) {
				t.Fatalf("%s: element (%d, %d) is %x, want %x", name, i, j, got, want)
			}
		}
	}
	if err := TransposeElem(raw, n, n, elem, o); err != nil {
		t.Fatalf("%s: back: %v", name, err)
	}
	if !bytes.Equal(raw, orig) {
		t.Fatalf("%s: transposing back did not restore the matrix", name)
	}
}

// PermuteAxes of [B, N, N] by [0, 2, 1] transposes a batch of square
// slabs, and swapping H and W of an NCHW tensor with H = W likewise.
func TestPermuteAxesSquareSlabs(t *testing.T) {
	for _, c := range []struct{ dims, perm []int }{
		{[]int{8, 64, 64}, []int{0, 2, 1}},
		{[]int{2, 3, 33, 33}, []int{0, 1, 3, 2}},
	} {
		for _, w := range []int{1, 2, 4} {
			checkPermute(t, c.dims, c.perm, Options{Workers: w})
		}
	}
}
