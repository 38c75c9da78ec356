package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"inplace/internal/cr"
	"inplace/internal/parallel"
)

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
	{"cache-aware", func(data []int, p *cr.Plan, workers int) { C2R(data, p, Opts{Workers: workers}) }},
	{"scatter", func(data []int, p *cr.Plan, _ int) { algorithm1C2R(data, p) }},
	{"gather", func(data []int, p *cr.Plan, _ int) { gatherOnlyC2R(data, p) }},
	{"closed-form", func(data []int, p *cr.Plan, workers int) { closedFormEngine(p, workers).C2R(data) }},
}

// r2cForms are the ways the package runs an R2C transposition: the
// Engine with the row kernel its shape selects, and with the closed-form
// row kernel, the gather through d'.
var r2cForms = []form{
	{"cache-aware", func(data []int, p *cr.Plan, workers int) { R2C(data, p, Opts{Workers: workers}) }},
	{"gather", func(data []int, p *cr.Plan, workers int) { closedFormEngine(p, workers).R2C(data) }},
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

// closedFormEngine builds an Engine for p that runs the closed-form row
// kernels whatever p's shape.
func closedFormEngine(p *cr.Plan, workers int) *Engine[int] {
	eng := NewEngine[int](NewSchedule(p, Opts{Workers: workers}))
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
			seq := NewEngine[int](NewSchedule(plan, Opts{Workers: 1}))
			parC2R := NewEngine[int](NewSchedule(plan, Opts{Workers: 7}))
			parR2C := NewEngine[int](NewSchedule(plan, Opts{Workers: 5}))
			if closed {
				seq.row, parC2R.row, parR2C.row = rowClosedForm, rowClosedForm, rowClosedForm
			}
			seqData := make([]int, m*n)
			for i := range seqData {
				seqData[i] = rng.Int()
			}
			parData := append([]int(nil), seqData...)
			seq.C2R(seqData)
			parC2R.C2R(parData)
			if !equalSlices(seqData, parData) {
				t.Fatalf("m=%d n=%d closed-form %v: parallel C2R differs from sequential", m, n, closed)
			}
			seq.R2C(seqData)
			parR2C.R2C(parData)
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
			C2R(data, plan, Opts{BlockW: bw, Workers: 3})
			if !equalSlices(data, want) {
				t.Fatalf("m=%d n=%d bw=%d: cache-aware C2R wrong", m, n, bw)
			}
			R2C(data, plan, Opts{BlockW: bw, Workers: 3})
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
}

// tileEdgeCase runs C2R and R2C of one engine against the oracle,
// twice each so recycled scratch is exercised.
func tileEdgeCase[T uint8 | uint16 | uint32 | uint64](t *testing.T, m, n, workers, blockW int) {
	t.Helper()
	plan := cr.NewPlan(m, n)
	eng := NewEngine[T](NewSchedule(plan, Opts{Workers: workers, BlockW: blockW}))
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
		eng.C2R(data)
		for i := range data {
			if data[i] != want[i] {
				t.Fatalf("%s: C2R round %d wrong at %d", name, round, i)
			}
		}
		// R2C with the same plan takes the n×m transpose back.
		eng.R2C(data)
		for i := range data {
			if data[i] != orig[i] {
				t.Fatalf("%s: R2C round %d wrong at %d", name, round, i)
			}
		}
	}
}

func TestTileWidth(t *testing.T) {
	for _, c := range []struct {
		m, n, elem, blockW, want int
	}{
		{2896, 2896, 8, 0, 8},         // near-square: one cache line
		{2896, 2896, 1, 0, 64},        // one line of bytes
		{4, 1 << 22, 4, 0, 4096},      // wide: a 64 KiB tile
		{256, 4096, 4, 0, 16},         // wide: capped at max(m,n)/m
		{16, 1024, 8, 0, 64},          // wide: max(m,n)/m inside 64 KiB
		{12, 5, 1, 0, 5},              // clamped to n
		{12, 20, 8, 33, 20},           // forced, clamped to n
		{12, 20, 8, 3, 3},             // forced
		{1 << 20, 1 << 20, 64, 0, 1},  // 64-byte elements: one per line
		{1 << 20, 1 << 20, 128, 0, 1}, // wider than a line still tiles
	} {
		if got := TileWidth(c.m, c.n, c.elem, c.blockW); got != c.want {
			t.Errorf("TileWidth(%d, %d, %d, %d) = %d, want %d", c.m, c.n, c.elem, c.blockW, got, c.want)
		}
	}
}

// scratchCase executes the engine for an m×n plan in both directions,
// and checks the scratch its state holds afterwards against
// PlanScratchBytes.
func scratchCase[T uint8 | uint16 | uint32 | uint64](t *testing.T, m, n, workers int) {
	t.Helper()
	plan := cr.NewPlan(m, n)
	o := Opts{Workers: workers}
	if workers > 1 {
		o.Pool = parallel.Shared()
	}
	eng := NewEngine[T](NewSchedule(plan, o))
	st := newExecState[T](eng.s)
	data := make([]T, m*n)
	for round := 0; round < 3; round++ {
		eng.c2r(data, st)
		eng.r2c(data, st)
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
	if figure := PlanScratchBytes(plan, o, es); held > figure {
		t.Errorf("%s: state holds %d bytes, PlanScratchBytes says %d", name, held, figure)
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
		{96, 100}, {250, 256}, {300, 300}, // near-square
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
		eng := closedFormEngine(cr.NewPlan(m, n), 2)
		data := seqSlice(m * n)
		want := make([]int, m*n)
		OutOfPlace(want, data, m, n)
		eng.C2R(data)
		if !equalSlices(data, want) {
			t.Fatalf("%dx%d: closed-form C2R wrong", m, n)
		}
		eng.R2C(data)
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
		C2R(data, plan, Opts{})
		if !equalSlices(data, want) {
			t.Fatalf("%dx%d: degenerate C2R wrong: %v", m, n, data)
		}
		R2C(data, plan, Opts{})
		if !equalSlices(data, seqSlice(m*n)) {
			t.Fatalf("%dx%d: degenerate R2C wrong: %v", m, n, data)
		}
	}
}

func TestEngineLengthPanics(t *testing.T) {
	plan := cr.NewPlan(3, 4)
	for _, f := range []func(){
		func() { C2R(make([]int, 11), plan, Opts{}) },
		func() { R2C(make([]int, 13), plan, Opts{}) },
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
	C2R(f, plan, Opts{Workers: 1})
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
	C2R(ps, plan, Opts{Workers: 2})
	for i := range ps {
		if ps[i] != wantP[i] {
			t.Fatalf("struct transpose wrong at %d", i)
		}
	}
}
