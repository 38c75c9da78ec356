package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"inplace/internal/cr"
)

// c2r and r2c transpose data through a one-shot engine over plan.
func c2r[T any](data []T, plan *cr.Plan, o Opts) { NewEngine[T](plan, o, true).Run(data) }

func r2c[T any](data []T, plan *cr.Plan, o Opts) { NewEngine[T](plan, o, false).Run(data) }

func seqSlice(n int) []int {
	x := make([]int, n)
	for i := range x {
		x[i] = i
	}
	return x
}

func equalSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOutOfPlaceOracle(t *testing.T) {
	src := seqSlice(6) // 2x3: [[0 1 2], [3 4 5]]
	dst := make([]int, 6)
	OutOfPlace(dst, src, 2, 3)
	want := []int{0, 3, 1, 4, 2, 5}
	if !equalSlices(dst, want) {
		t.Fatalf("OutOfPlace = %v, want %v", dst, want)
	}
}

func TestOutOfPlacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	OutOfPlace(make([]int, 5), make([]int, 6), 2, 3)
}

// Theorem 1: the C2R gather's row-major linearization equals the
// transpose's row-major linearization.
func TestTheorem1GatherC2REqualsTranspose(t *testing.T) {
	for m := 1; m <= 16; m++ {
		for n := 1; n <= 16; n++ {
			src := seqSlice(m * n)
			viaGather := make([]int, m*n)
			viaTranspose := make([]int, m*n)
			GatherC2R(viaGather, src, m, n)
			OutOfPlace(viaTranspose, src, m, n)
			if !equalSlices(viaGather, viaTranspose) {
				t.Fatalf("m=%d n=%d: C2R gather != transpose\n%v\n%v", m, n, viaGather, viaTranspose)
			}
		}
	}
}

// GatherR2C inverts GatherC2R.
func TestGatherR2CInvertsC2R(t *testing.T) {
	for m := 1; m <= 16; m++ {
		for n := 1; n <= 16; n++ {
			src := seqSlice(m * n)
			mid := make([]int, m*n)
			back := make([]int, m*n)
			GatherC2R(mid, src, m, n)
			GatherR2C(back, mid, m, n)
			if !equalSlices(back, src) {
				t.Fatalf("m=%d n=%d: R2C did not invert C2R", m, n)
			}
		}
	}
}

// form is one way the package runs a transposition of plan p.
type form struct {
	name string
	run  func(data []int, p *cr.Plan, workers int)
}

// c2rForms are the ways the package runs a C2R transposition: the
// Engine with the row kernel its shape selects; Algorithm 1 verbatim,
// whose row shuffle scatters through d' (the reproduction code of the
// Theorem 7 test); its gather-only form of §5.1, whose row shuffle
// gathers through d'⁻¹ (the kernels the ablations time); and the Engine
// with the closed-form row kernel that plans past MaxInt32 columns run.
var c2rForms = []form{
	{"cache-aware", func(data []int, p *cr.Plan, workers int) { c2r(data, p, Opts{Workers: workers}) }},
	{"scatter", func(data []int, p *cr.Plan, _ int) { algorithm1C2R(data, p) }},
	{"gather", func(data []int, p *cr.Plan, _ int) { gatherOnlyC2R(data, p) }},
	{"closed-form", func(data []int, p *cr.Plan, workers int) { closedFormEngine(p, workers, true).Run(data) }},
}

// r2cForms are the ways the package runs an R2C transposition: the
// Engine with the row kernel its shape selects, and with the closed-form
// row kernel, the gather through d'.
var r2cForms = []form{
	{"cache-aware", func(data []int, p *cr.Plan, workers int) { r2c(data, p, Opts{Workers: workers}) }},
	{"gather", func(data []int, p *cr.Plan, workers int) { closedFormEngine(p, workers, false).Run(data) }},
}

// gatherOnlyC2R is Algorithm 1 with the row shuffle gathered through
// d'⁻¹ instead of scattered through d'.
func gatherOnlyC2R(data []int, p *cr.Plan) {
	tmp := make([]int, max(p.M, p.N))
	if !p.Coprime {
		rotateColumnsGatherRange(data, p.M, p.N, p.Rot, p.DivM(), tmp, 0, p.N)
	}
	rowShuffleGatherRange(data, p, tmp, 0, p.M)
	columnShuffleGatherRange(data, p, tmp, 0, p.N)
}

// closedFormEngine builds an Engine for p in the given direction that
// runs the closed-form row kernels whatever p's shape.
func closedFormEngine(p *cr.Plan, workers int, c2r bool) *Engine[int] {
	eng := NewEngine[int](p, Opts{Workers: workers}, c2r)
	eng.row = rowClosedForm
	return eng
}

// Every form of the transposition must be exact for every shape.
func TestC2RAllVariantsExhaustive(t *testing.T) {
	for _, f := range c2rForms {
		t.Run(f.name, func(t *testing.T) {
			for m := 1; m <= 24; m++ {
				for n := 1; n <= 24; n++ {
					plan := cr.NewPlan(m, n)
					data := seqSlice(m * n)
					want := make([]int, m*n)
					OutOfPlace(want, data, m, n)
					f.run(data, plan, 1)
					if !equalSlices(data, want) {
						t.Fatalf("m=%d n=%d: C2R %s wrong\n got %v\nwant %v", m, n, f.name, data, want)
					}
				}
			}
		})
	}
}

// R2C with plan (m, n) transposes a row-major n×m array into m×n.
func TestR2CAllVariantsExhaustive(t *testing.T) {
	for _, f := range r2cForms {
		t.Run(f.name, func(t *testing.T) {
			for m := 1; m <= 24; m++ {
				for n := 1; n <= 24; n++ {
					plan := cr.NewPlan(m, n)
					data := seqSlice(m * n) // row-major n×m input
					want := make([]int, m*n)
					OutOfPlace(want, data, n, m)
					f.run(data, plan, 1)
					if !equalSlices(data, want) {
						t.Fatalf("m=%d n=%d: R2C %s wrong\n got %v\nwant %v", m, n, f.name, data, want)
					}
				}
			}
		})
	}
}

// R2C must invert C2R exactly, whichever forms run the two directions.
func TestR2CInvertsC2RAcrossVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(40)
		n := 1 + rng.Intn(40)
		plan := cr.NewPlan(m, n)
		orig := make([]int, m*n)
		for i := range orig {
			orig[i] = rng.Int()
		}
		fc := c2rForms[rng.Intn(len(c2rForms))]
		fr := r2cForms[rng.Intn(len(r2cForms))]
		data := append([]int(nil), orig...)
		fc.run(data, plan, 0)
		fr.run(data, plan, 0)
		if !equalSlices(data, orig) {
			t.Fatalf("m=%d n=%d: R2C(%s) did not invert C2R(%s)", m, n, fr.name, fc.name)
		}
	}
}

// Parallel execution must agree with sequential, for either row kernel.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, closed := range []bool{false, true} {
		for trial := 0; trial < 25; trial++ {
			m := 1 + rng.Intn(80)
			n := 1 + rng.Intn(80)
			plan := cr.NewPlan(m, n)
			seqC2R := NewEngine[int](plan, Opts{Workers: 1}, true)
			seqR2C := NewEngine[int](plan, Opts{Workers: 1}, false)
			parC2R := NewEngine[int](plan, Opts{Workers: 7}, true)
			parR2C := NewEngine[int](plan, Opts{Workers: 5}, false)
			if closed {
				seqC2R.row, seqR2C.row, parC2R.row, parR2C.row = rowClosedForm, rowClosedForm, rowClosedForm, rowClosedForm
			}
			seqData := make([]int, m*n)
			for i := range seqData {
				seqData[i] = rng.Int()
			}
			parData := append([]int(nil), seqData...)
			seqC2R.Run(seqData)
			parC2R.Run(parData)
			if !equalSlices(seqData, parData) {
				t.Fatalf("m=%d n=%d closed-form %v: parallel C2R differs from sequential", m, n, closed)
			}
			seqR2C.Run(seqData)
			parR2C.Run(parData)
			if !equalSlices(seqData, parData) {
				t.Fatalf("m=%d n=%d closed-form %v: parallel R2C differs from sequential", m, n, closed)
			}
		}
	}
}

// The engine with tiny and odd block widths must stay exact.
func TestCacheAwareBlockWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, bw := range []int{1, 2, 3, 5, 8, 13, 64} {
		for trial := 0; trial < 10; trial++ {
			m := 1 + rng.Intn(60)
			n := 1 + rng.Intn(60)
			plan := cr.NewPlan(m, n)
			data := seqSlice(m * n)
			want := make([]int, m*n)
			OutOfPlace(want, data, m, n)
			c2r(data, plan, Opts{BlockW: bw, Workers: 3})
			if !equalSlices(data, want) {
				t.Fatalf("m=%d n=%d bw=%d: cache-aware C2R wrong", m, n, bw)
			}
			r2c(data, plan, Opts{BlockW: bw, Workers: 3})
			if !equalSlices(data, seqSlice(m*n)) {
				t.Fatalf("m=%d n=%d bw=%d: cache-aware R2C wrong", m, n, bw)
			}
		}
	}
	// The tiled column passes must be exact at every tile edge, for
	// every element width (the derived tile width depends on it), worker
	// count and forced tile width (0 derives it), in both directions.
	for _, sh := range tileEdgeShapes {
		for _, workers := range []int{1, 2, 4} {
			for _, bw := range []int{0, 1, 3, 33} {
				tileEdgeCase[uint8](t, sh.m, sh.n, workers, bw)
				tileEdgeCase[uint16](t, sh.m, sh.n, workers, bw)
				tileEdgeCase[uint32](t, sh.m, sh.n, workers, bw)
				tileEdgeCase[uint64](t, sh.m, sh.n, workers, bw)
			}
		}
	}
	// The row-shuffle kernels must be exact at every kernel boundary,
	// for every element width (the interleave block depends on it) and
	// worker count, in both directions.
	for _, sh := range rowKernelShapes {
		if sh.long && testing.Short() {
			continue
		}
		for _, workers := range []int{1, 2, 7} {
			tileEdgeCase[uint8](t, sh.m, sh.n, workers, 0)
			tileEdgeCase[uint16](t, sh.m, sh.n, workers, 0)
			tileEdgeCase[uint32](t, sh.m, sh.n, workers, 0)
			tileEdgeCase[uint64](t, sh.m, sh.n, workers, 0)
		}
	}
}

// rowKernelShapes are cr plan shapes (m×n) at the edges of the
// row-shuffle kernels of rowshuffle.go. The long one is skipped in
// short mode.
var rowKernelShapes = []struct {
	m, n int
	why  string
	long bool
}{
	{7, 7, "b = 1: square rotation", false},
	{64, 64, "b = 1: square rotation, several rows per worker", false},
	{12, 4, "b = 1, a = 3: m > n rotation", false},
	{30, 5, "b = 1, a = 6: m > n rotation", false},
	{3, 30003, "a = 1: b = 10001, past the interleave block at every width", false},
	{16, 48000, "a = 1: 16 streams, b = 3000 past the block", false},
	{256, 4096, "a = 1: 256 streams of 16", false},
	{97, 101, "a > 1, coprime", false},
	{101, 97, "a > 1, coprime, m > n", false},
	{60, 84, "gcd 12, a = 5, b = 7", false},
	{84, 60, "gcd 12, a = 7, b = 5, m > n", false},
	{6, 4, "gcd 2, a = 3, b = 2, m > n", false},
	{2, 3 << 20, "a = 1: rows longer than L2 at every width", true},
	{4096, 2, "b = 1, m ≫ n: a skinny C2R plan", false},
	{4097, 3, "coprime and skinny: a table of b = 3", false},
	{8192, 16, "b = 1, 16 columns of 8192 rows", false},
	{7777, 31, "coprime and skinny: a table of b = 31", false},
	{4099, 24, "coprime and skinny: a table of b = 24", false},
}

// tileEdgeShapes are cr plan shapes (m×n) at the edges of the tiled
// column passes.
var tileEdgeShapes = []struct {
	m, n int
	why  string
}{
	{1, 1, "m = 1, single element"},
	{1, 300, "m = 1, many tiles"},
	{2, 2, "m = 2, square"},
	{2, 9, "m = 2, odd n"},
	{2, 301, "m = 2, n not a multiple of any derived W"},
	{5, 37, "m below one cache line at every width"},
	{7, 100, "m below one cache line, coprime"},
	{16, 100, "n not a multiple of W"},
	{12, 20, "W > n when forced to 33"},
	{12, 18, "gcd 6, b = 3 < W: the amount changes inside a tile"},
	{48, 64, "gcd 16, a = 3, b = 4 < W"},
	{24, 24, "square: b = 1, one amount per column"},
	{9, 12, "gcd 3, a = 3, b = 4"},
	{4, 400, "gcd 4, b = 100 >= W: one amount per tile"},
	{8, 800, "gcd 8, b = 100 >= W, several tiles per amount"},
	{10, 35, "gcd 5, b = 7: forced W 3 straddles amount boundaries"},
	{33, 250, "many tiles and chunks, coprime"},
	{64, 1000, "gcd 8, b = 125, multi-chunk"},
	{64, 1024, "a = 1, b = 16: runs of a line at 4 bytes, several per derived tile"},
	{32, 800, "gcd 32, b = 25: runs past a line at 4 and 8 bytes, straddled by W"},
}

// tileEdgeCase runs the C2R and R2C engines of one plan against the
// oracle, twice each so recycled scratch is exercised.
func tileEdgeCase[T uint8 | uint16 | uint32 | uint64](t *testing.T, m, n, workers, blockW int) {
	t.Helper()
	plan := cr.NewPlan(m, n)
	o := Opts{Workers: workers, BlockW: blockW}
	fwd, inv := NewEngine[T](plan, o, true), NewEngine[T](plan, o, false)
	rng := rand.New(rand.NewSource(int64(m*7919 + n)))
	orig := make([]T, m*n)
	for i := range orig {
		orig[i] = T(rng.Uint64())
	}
	want := make([]T, m*n)
	OutOfPlace(want, orig, m, n)
	var zero T
	name := fmt.Sprintf("%dx%d elem %d workers %d bw %d", m, n, unsafe.Sizeof(zero), workers, blockW)
	for round := 0; round < 2; round++ {
		data := append([]T(nil), orig...)
		fwd.Run(data)
		for i := range data {
			if data[i] != want[i] {
				t.Fatalf("%s: C2R round %d wrong at %d", name, round, i)
			}
		}
		// R2C with the same plan takes the n×m transpose back.
		inv.Run(data)
		for i := range data {
			if data[i] != orig[i] {
				t.Fatalf("%s: R2C round %d wrong at %d", name, round, i)
			}
		}
	}
}

// A square plan runs the swap sweep in both directions. It must be
// exact at every tile edge: one tile covering the matrix (B ≥ n), a
// narrower last band, an odd tile-row count whose middle band pairs
// with itself, one-element tiles, and more workers than band pairs.
func TestSquareSwap(t *testing.T) {
	for _, n := range []int{1, 2, 3, 31, 63, 64, 65, 127, 128, 129, 200, 257} {
		for _, bw := range []int{0, 1, 3, 7, 64, n, n + 5} {
			for _, workers := range []int{1, 2, 3, 4} {
				tileEdgeCase[uint8](t, n, n, workers, bw)
				tileEdgeCase[uint16](t, n, n, workers, bw)
				tileEdgeCase[uint32](t, n, n, workers, bw)
				tileEdgeCase[uint64](t, n, n, workers, bw)
			}
		}
	}
}

func TestTileWidth(t *testing.T) {
	for _, c := range []struct {
		m, n, elem, blockW, want int
	}{
		{2880, 3000, 8, 0, 32},        // rows a page apart: four lines
		{2797, 3000, 8, 0, 32},        // rows a page apart: four lines of u64
		{2797, 3000, 4, 0, 64},        // rows a page apart: four lines of u32
		{511, 512, 8, 0, 32},          // rows exactly a page apart
		{1024, 511, 8, 0, 8},          // rows just under a page apart: one line
		{511, 1024, 8, 0, 32},         // the same matrix's other plan
		{1000, 1001, 4, 0, 16},        // rows under a page apart: one line
		{2896, 2897, 1, 0, 64},        // rows under a page apart: one line of bytes
		{4096, 4097, 8, 0, 32},        // the most rows that take four lines
		{4097, 4098, 8, 0, 8},         // m > 4096: one line
		{100, 1366, 3, 0, 85},         // 4098-byte rows: four lines of 3-byte elements
		{100, 1365, 3, 0, 21},         // 4095-byte rows: one line
		{4, 1 << 22, 4, 0, 1024},      // aos_f4: a 16 KiB tile
		{16, 1 << 20, 4, 0, 256},      // aos_f16: a 16 KiB tile
		{8, 1 << 17, 4, 0, 512},       // a tile-store ingest chunk: a 16 KiB tile
		{256, 4096, 4, 0, 64},         // perm slab: four lines, past max(m,n)/m
		{16, 1024, 8, 0, 64},          // wide: max(m,n)/m inside 16 KiB
		{8, 1024, 4, 0, 128},          // a tiny serve shape: max(m,n)/m
		{45, 91, 8, 0, 8},             // a tiny serve shape: one line
		{12, 5, 1, 0, 5},              // clamped to n
		{12, 20, 8, 33, 20},           // forced, clamped to n
		{12, 20, 8, 3, 3},             // forced
		{1 << 20, 1 << 19, 64, 0, 1},  // 64-byte elements: one per line
		{1 << 20, 1 << 19, 128, 0, 1}, // wider than a line still tiles
		// Square plans: the swap sweep's B, 64 while the B×B stage
		// stays within 32 KiB.
		{2896, 2896, 8, 0, 64},        // inmem t2d_gcd: a 32 KiB stage
		{2896, 2896, 4, 0, 64},        // a 16 KiB stage
		{2896, 2896, 1, 0, 64},        // bytes: still 64
		{1000, 1000, 4, 0, 64},        // a serve mid shape
		{512, 512, 8, 0, 64},          // rows exactly a page apart
		{4097, 4097, 8, 0, 64},        // no row-count gate
		{300, 300, 16, 0, 32},         // 16-byte elements: a 16 KiB stage
		{300, 300, 128, 0, 16},        // 128-byte elements: a 32 KiB stage
		{1 << 20, 1 << 20, 64, 0, 16}, // 64-byte elements: a 16 KiB stage
		{48, 48, 8, 0, 48},            // clamped to n: one tile
		{1, 1, 8, 0, 1},               // 1×1
		{300, 300, 8, 100, 100},       // forced
		{300, 300, 8, 500, 300},       // forced, clamped to n
	} {
		if got := TileWidth(c.m, c.n, c.elem, c.blockW); got != c.want {
			t.Errorf("TileWidth(%d, %d, %d, %d) = %d, want %d", c.m, c.n, c.elem, c.blockW, got, c.want)
		}
	}
}

// unshuffleRef is the R2C column shuffle of Eqs. 34–35 element by
// element: row i of column j takes source row q⁻¹((i − j) mod m).
func unshuffleRef[T any](dst, src []T, p *cr.Plan) {
	m, n := p.M, p.N
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst[i*n+j] = src[p.QInv(((i-j)%m+m)%m)*n+j]
		}
	}
}

// The R2C column shuffle loads each source row whole into tile row q(k)
// and writes back along a diagonal whose window wraps around the tile.
// It must be exact at every tile edge: a narrower last tile, tiles wider
// than the matrix is tall (m < W: a row's window wraps more than once),
// tiles whose first column j0 is not a multiple of m (the window starts
// inside the tile), and plans with a > 1, where qStep decrements q only
// every a rows (with a = 1 it does so every row).
func TestUnshuffleTileEdges(t *testing.T) {
	var narrow, tall, offset, aBig, aOne bool
	for _, c := range []struct{ m, n, w int }{
		{12, 100, 8},    // gcd 4, a = 3
		{5, 37, 16},     // coprime, m < W
		{7, 300, 64},    // coprime, m < W, several tiles
		{16, 1000, 256}, // gcd 8, a = 2, m < W
		{97, 101, 32},   // coprime, a = 97
		{60, 84, 5},     // gcd 12, a = 5, b = 7
		{4, 100, 3},     // a = 1
		{48, 64, 33},    // gcd 16, a = 3
		{300, 1100, TileWidth(300, 1100, 4, 0)},
		{2, 301, TileWidth(2, 301, 8, 0)},
	} {
		m, n, w := c.m, c.n, c.w
		p := cr.NewPlan(m, n)
		narrow = narrow || n%w != 0
		tall = tall || m < w
		offset = offset || (n > w && w%m != 0)
		aBig = aBig || p.A > 1
		aOne = aOne || p.A == 1
		rng := rand.New(rand.NewSource(int64(m*31 + n)))
		src := make([]uint32, m*n)
		for i := range src {
			src[i] = rng.Uint32()
		}
		got := append([]uint32(nil), src...)
		tileColumnsRange(got, p, tileShuffleInv, w, make([]uint32, m*w), make([]int, w), 0, (n+w-1)/w)
		want := make([]uint32, m*n)
		unshuffleRef(want, src, p)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%d W %d: unshuffle wrong at row %d col %d", m, n, w, i/n, i%n)
			}
		}
		// The whole transposition, R2C and C2R, against OutOfPlace.
		for _, workers := range []int{1, 2} {
			tileEdgeCase[uint32](t, m, n, workers, w)
			tileEdgeCase[uint64](t, m, n, workers, w)
		}
	}
	if !narrow || !tall || !offset || !aBig || !aOne {
		t.Fatalf("cases miss an edge: narrower last tile %v, m < W %v, j0 mod m ≠ 0 %v, a > 1 %v, a = 1 %v",
			narrow, tall, offset, aBig, aOne)
	}
}

// scratchCase executes the engines of an m×n plan in both directions
// through one state, and checks the scratch the state holds afterwards
// against PlanScratchBytes.
func scratchCase[T uint8 | uint16 | uint32 | uint64](t *testing.T, m, n, workers int) {
	t.Helper()
	plan := cr.NewPlan(m, n)
	o := Opts{Workers: workers}
	eng := NewEngine[T](plan, o, true)
	inv := NewEngine[T](plan, o, false)
	st := newExecState(eng)
	data := make([]T, m*n)
	for round := 0; round < 3; round++ {
		for _, e := range []*Engine[T]{eng, inv} {
			for i := range e.passes {
				e.run(data, st, &e.passes[i])
			}
		}
	}
	var zero T
	es := int(unsafe.Sizeof(zero))
	held, widest, widestTab := 0, 0, 0
	for i := range st.frames {
		fr := &st.frames[i]
		held += cap(fr.tmp)*es + cap(fr.am)*intBytes + cap(fr.tab)*4
		widest = max(widest, cap(fr.tmp))
		widestTab = max(widestTab, cap(fr.tab))
	}
	name := fmt.Sprintf("%dx%d elem %d workers %d", m, n, es, workers)
	figure := PlanScratchBytes(plan, o, es)
	if held > figure {
		t.Errorf("%s: state holds %d bytes, PlanScratchBytes says %d", name, held, figure)
	}
	if m == n {
		// The swap sweep: one B×B staging tile per worker with a
		// chunk of band pairs, none when one tile covers the matrix,
		// and the figure exact.
		w, chunks := eng.tileW, len(eng.passes[0].bounds)-1
		want, stage := 0, 0
		if w < n {
			want, stage = chunks*w*w*es, w*w
		}
		if held != want || figure != want || widest != stage || widestTab != 0 {
			t.Errorf("%s: B %d, %d chunks: state holds %d bytes (widest frame %d elements, table %d), figure %d, want %d",
				name, w, chunks, held, widest, widestTab, figure, want)
		}
		return
	}
	if w := eng.tileW; m > 1 && widest < max(n, m*w) {
		t.Errorf("%s: widest frame %d elements, want max(n, m·W) = %d", name, widest, max(n, m*w))
	}
	if want := rowTableBytes(m, n) / 4; widestTab != want {
		t.Errorf("%s: widest stride table %d entries, want %d", name, widestTab, want)
	}
}

// PlanScratchBytes is the exact per-execution scratch bound of the
// engine the planners build: executed states never hold more.
func TestScratchBytesBoundsExecution(t *testing.T) {
	for _, sh := range [][2]int{
		{1, 1}, {2, 3}, {5, 7}, // tiny
		{3, 4096}, {4096, 3}, {16, 20000}, {20000, 16}, {20000, 6}, // skinny
		{96, 100}, {250, 256}, {299, 300}, // near-square
		{300, 1100}, {600, 520}, {1100, 300}, // rows a page apart at 4 and 8 bytes; the last keeps one line
		{300, 300}, {512, 512}, {1024, 1024}, // square: the swap sweep
		{64, 64}, {65, 65}, // square: one tile covers, and just not
	} {
		for _, workers := range []int{1, 2, 4} {
			scratchCase[uint8](t, sh[0], sh[1], workers)
			scratchCase[uint16](t, sh[0], sh[1], workers)
			scratchCase[uint32](t, sh[0], sh[1], workers)
			scratchCase[uint64](t, sh[0], sh[1], workers)
		}
	}
	// More workers than rows: only m of them hold an n-element buffer.
	scratchCase[uint64](t, 4, 20000, 8)
	scratchCase[uint8](t, 4, 20000, 8)
}

// Each plan shape selects one row-shuffle kernel. Plans with a, b > 1
// and n > MaxInt32 cannot hold their table entries in int32: they run
// the closed-form kernels of passes.go, and their scratch figure holds
// no table.
func TestRowKernelKinds(t *testing.T) {
	for _, c := range []struct {
		m, n int
		want rowKind
	}{
		{1, 1, rowRotate},
		{24, 24, rowRotate},
		{12, 4, rowRotate},
		{1, 300, rowInterleave},
		{4, 100, rowInterleave},
		{3, 1<<31 + 1, rowInterleave}, // 2^31 + 1 = 3·715827883
		{97, 101, rowTable},
		{60, 84, rowTable},
		{84, 60, rowTable},
		{2, math.MaxInt32, rowTable}, // entries up to n − 1 still fit
		{2, 1<<31 + 1, rowClosedForm},
		{4, 1<<31 + 2, rowClosedForm},
	} {
		p := cr.NewPlan(c.m, c.n)
		if got := rowKindOf(p.A, p.B, p.N); got != c.want {
			t.Errorf("%v: row kernel %d, want %d", p, got, c.want)
		}
		want := 0
		if c.want == rowTable {
			want = 8 * p.B
		}
		if got := rowTableBytes(c.m, c.n); got != want {
			t.Errorf("%v: table bytes %d, want %d", p, got, want)
		}
	}
	// The closed-form kernels stay exact when an engine selects them.
	for _, sh := range [][2]int{{97, 101}, {60, 84}, {84, 60}, {6, 4}} {
		m, n := sh[0], sh[1]
		plan := cr.NewPlan(m, n)
		data := seqSlice(m * n)
		want := make([]int, m*n)
		OutOfPlace(want, data, m, n)
		closedFormEngine(plan, 2, true).Run(data)
		if !equalSlices(data, want) {
			t.Fatalf("%dx%d: closed-form C2R wrong", m, n)
		}
		closedFormEngine(plan, 2, false).Run(data)
		if !equalSlices(data, seqSlice(m*n)) {
			t.Fatalf("%dx%d: closed-form R2C wrong", m, n)
		}
	}
}

func TestScratchBytesSaturates(t *testing.T) {
	const maxInt = int(^uint(0) >> 1)
	if got := ScratchBytes(1<<40, 1<<40, 8, 1, 1<<30); got != maxInt {
		t.Errorf("overflowing tile: got %d, want MaxInt", got)
	}
	if got := ScratchBytes(4, 1<<60, 8, 4, 16); got != maxInt {
		t.Errorf("overflowing bytes: got %d, want MaxInt", got)
	}
	if got, want := ScratchBytes(4, 100, 8, 3, 16), 3*(100*8+16*intBytes); got != want {
		t.Errorf("ScratchBytes(4, 100, 8, 3, 16) = %d, want %d", got, want)
	}
	// Six workers, four rows: two workers hold only a 4×16 tile.
	if got, want := ScratchBytes(4, 100, 8, 6, 16), 4*100*8+2*64*8+6*16*intBytes; got != want {
		t.Errorf("ScratchBytes(4, 100, 8, 6, 16) = %d, want %d", got, want)
	}
}

// Degenerate shapes: single row, single column, single element, square.
func TestDegenerateShapes(t *testing.T) {
	for _, sh := range [][2]int{{1, 1}, {1, 17}, {17, 1}, {8, 8}, {1, 2}, {2, 1}} {
		m, n := sh[0], sh[1]
		plan := cr.NewPlan(m, n)
		data := seqSlice(m * n)
		want := make([]int, m*n)
		OutOfPlace(want, data, m, n)
		c2r(data, plan, Opts{})
		if !equalSlices(data, want) {
			t.Fatalf("%dx%d: degenerate C2R wrong: %v", m, n, data)
		}
		r2c(data, plan, Opts{})
		if !equalSlices(data, seqSlice(m*n)) {
			t.Fatalf("%dx%d: degenerate R2C wrong: %v", m, n, data)
		}
	}
}

func TestEngineLengthPanics(t *testing.T) {
	plan := cr.NewPlan(3, 4)
	for _, f := range []func(){
		func() { c2r(make([]int, 11), plan, Opts{}) },
		func() { r2c(make([]int, 13), plan, Opts{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic on bad buffer length")
				}
			}()
			f()
		}()
	}
}

// Different element types: the engine is generic.
func TestGenericElementTypes(t *testing.T) {
	m, n := 5, 8
	plan := cr.NewPlan(m, n)

	f := make([]float64, m*n)
	for i := range f {
		f[i] = float64(i) * 1.5
	}
	wantF := make([]float64, m*n)
	OutOfPlace(wantF, f, m, n)
	c2r(f, plan, Opts{Workers: 1})
	for i := range f {
		if f[i] != wantF[i] {
			t.Fatalf("float64 transpose wrong at %d", i)
		}
	}

	type pair struct{ a, b int32 }
	ps := make([]pair, m*n)
	for i := range ps {
		ps[i] = pair{int32(i), int32(-i)}
	}
	wantP := make([]pair, m*n)
	OutOfPlace(wantP, ps, m, n)
	c2r(ps, plan, Opts{Workers: 2})
	for i := range ps {
		if ps[i] != wantP[i] {
			t.Fatalf("struct transpose wrong at %d", i)
		}
	}
}
