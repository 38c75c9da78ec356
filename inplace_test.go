package inplace

import (
	"math/rand"
	"testing"
	"unsafe"
)

func reference(src []int, rows, cols int) []int {
	dst := make([]int, len(src))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			dst[j*rows+i] = src[i*cols+j]
		}
	}
	return dst
}

func intSeq(n int) []int {
	x := make([]int, n)
	for i := range x {
		x[i] = i
	}
	return x
}

func equal(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

func TestTransposeExhaustiveSmall(t *testing.T) {
	for rows := 1; rows <= 20; rows++ {
		for cols := 1; cols <= 20; cols++ {
			data := intSeq(rows * cols)
			want := reference(data, rows, cols)
			if err := Transpose(data, rows, cols); err != nil {
				t.Fatalf("%dx%d: %v", rows, cols, err)
			}
			if !equal(data, want) {
				t.Fatalf("%dx%d: wrong result", rows, cols)
			}
		}
	}
}

func TestTransposeBlockWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, bw := range fuzzBlockWidths {
		for trial := 0; trial < 20; trial++ {
			rows := 1 + rng.Intn(50)
			cols := 1 + rng.Intn(50)
			data := intSeq(rows * cols)
			want := reference(data, rows, cols)
			if err := TransposeWith(data, rows, cols, Options{BlockWidth: bw, Workers: 3}); err != nil {
				t.Fatalf("block width %d: %v", bw, err)
			}
			if !equal(data, want) {
				t.Fatalf("block width %d %dx%d: wrong result", bw, rows, cols)
			}
		}
	}
}

func TestTransposeDirections(t *testing.T) {
	for _, d := range []Direction{HeuristicDirection, ForceC2R, ForceR2C} {
		for rows := 1; rows <= 12; rows++ {
			for cols := 1; cols <= 12; cols++ {
				data := intSeq(rows * cols)
				want := reference(data, rows, cols)
				if err := TransposeWith(data, rows, cols, Options{Direction: d}); err != nil {
					t.Fatal(err)
				}
				if !equal(data, want) {
					t.Fatalf("direction %d %dx%d: wrong result", d, rows, cols)
				}
			}
		}
	}
	// A forced tile width reaches the engine in either direction: tile
	// edges where the pre-rotation amount changes inside a tile (12×18)
	// or once per tile (4×400), and n not a multiple of the width.
	for _, sh := range [][2]int{{12, 18}, {4, 400}, {2, 301}, {10, 35}} {
		for _, d := range []Direction{ForceC2R, ForceR2C} {
			for _, bw := range []int{1, 3, 33} {
				rows, cols := sh[0], sh[1]
				data := intSeq(rows * cols)
				want := reference(data, rows, cols)
				o := Options{Direction: d, BlockWidth: bw, Workers: 2, Tuning: WisdomOff}
				if err := TransposeWith(data, rows, cols, o); err != nil {
					t.Fatal(err)
				}
				if !equal(data, want) {
					t.Fatalf("direction %d block width %d %dx%d: wrong result", d, bw, rows, cols)
				}
			}
		}
	}
	// Shapes at the edges of the engine's row-shuffle kernels, whose
	// plan has m > n under one forced direction or the other: b = 1
	// rotations, a = 1 interleaves with b past the interleave block,
	// a > 1 coprime and gcd tables, and rows longer than L2 (skipped in
	// short mode).
	for _, sh := range [][2]int{{7, 7}, {12, 4}, {4, 12}, {3, 30003}, {30003, 3}, {97, 101}, {101, 97}, {60, 84}, {84, 60}, {2, 3 << 20}} {
		if sh[0]*sh[1] > 1<<20 && testing.Short() {
			continue
		}
		for _, d := range []Direction{HeuristicDirection, ForceC2R, ForceR2C} {
			for _, workers := range []int{1, 2, 7} {
				directionCase[uint8](t, sh[0], sh[1], d, workers)
				directionCase[uint16](t, sh[0], sh[1], d, workers)
				directionCase[uint32](t, sh[0], sh[1], d, workers)
				directionCase[uint64](t, sh[0], sh[1], d, workers)
			}
		}
	}
}

// directionCase transposes a random rows×cols matrix of T in direction
// d on workers workers and checks it against the reference.
func directionCase[T uint8 | uint16 | uint32 | uint64](t *testing.T, rows, cols int, d Direction, workers int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(rows*7919 + cols)))
	data := make([]T, rows*cols)
	for i := range data {
		data[i] = T(rng.Uint64())
	}
	want := make([]T, len(data))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			want[j*rows+i] = data[i*cols+j]
		}
	}
	if err := TransposeWith(data, rows, cols, Options{Direction: d, Workers: workers, Tuning: WisdomOff}); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] != want[i] {
			var zero T
			t.Fatalf("direction %d %dx%d elem %d workers %d: wrong at %d", d, rows, cols, unsafe.Sizeof(zero), workers, i)
		}
	}
}

func TestHeuristicDirectionChoice(t *testing.T) {
	// The heuristic picks the pipeline with the shorter internal
	// columns: C2R's columns are `rows` long, R2C's are `cols` long.
	p, err := NewPlan(100, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.UsesC2R() {
		t.Error("rows > cols must select R2C (shorter internal columns)")
	}
	p, err = NewPlan(10, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.UsesC2R() {
		t.Error("rows < cols must select C2R (shorter internal columns)")
	}
	// Forcing overrides the heuristic.
	p, err = NewPlan(100, 10, Options{Direction: ForceC2R})
	if err != nil {
		t.Fatal(err)
	}
	if !p.UsesC2R() {
		t.Error("ForceC2R must be honored")
	}
}

func TestColMajorOrder(t *testing.T) {
	// A col-major rows×cols array transposed in place becomes the
	// col-major cols×rows transpose; linearly this equals transposing
	// the row-major cols×rows view (Theorem 2).
	rows, cols := 5, 7
	data := intSeq(rows * cols) // col-major rows×cols: element (i,j) at i + j*rows
	// Build the expected col-major transpose.
	want := make([]int, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := data[i+j*rows]
			want[j+i*cols] = v // transposed: (j,i) at j + i*cols (col-major cols×rows)
		}
	}
	if err := TransposeWith(data, rows, cols, Options{Order: ColMajor}); err != nil {
		t.Fatal(err)
	}
	if !equal(data, want) {
		t.Fatalf("col-major transpose wrong:\n got %v\nwant %v", data, want)
	}
}

func TestPlanReuse(t *testing.T) {
	p, err := NewPlan(9, 14, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows() != 9 || p.Cols() != 14 {
		t.Fatalf("plan dims wrong: %v", p)
	}
	if p.String() == "" {
		t.Fatal("empty plan string")
	}
	pl, err := NewPlanner[int](9, 14)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Plan().UsesC2R() != p.UsesC2R() {
		t.Fatalf("planner resolved %v, NewPlan %v", pl.Plan(), p)
	}
	for trial := 0; trial < 3; trial++ {
		data := intSeq(9 * 14)
		want := reference(data, 9, 14)
		if err := pl.Execute(data); err != nil {
			t.Fatal(err)
		}
		if !equal(data, want) {
			t.Fatalf("plan reuse trial %d wrong", trial)
		}
	}
}

func TestErrors(t *testing.T) {
	if err := Transpose(make([]int, 6), 0, 6); err == nil {
		t.Error("zero rows must fail")
	}
	if err := Transpose(make([]int, 5), 2, 3); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := NewPlan(-1, 3, Options{}); err == nil {
		t.Error("negative rows must fail")
	}
	c2r, r2c := Options{Direction: ForceC2R}, Options{Direction: ForceR2C}
	if err := TransposeWith(make([]int, 5), 2, 3, c2r); err == nil {
		t.Error("ForceC2R length mismatch must fail")
	}
	if err := TransposeWith(make([]int, 6), -2, -3, c2r); err == nil {
		t.Error("ForceC2R bad shape must fail")
	}
	if err := TransposeWith(make([]int, 5), 3, 2, r2c); err == nil {
		t.Error("ForceR2C length mismatch must fail")
	}
	if err := TransposeWith(make([]int, 6), 3, 0, r2c); err == nil {
		t.Error("ForceR2C bad shape must fail")
	}
}

// TestC2RAndR2CPrimitives checks the paper's two permutations as the
// forced directions run them: C2R with an m×n plan transposes a
// row-major m×n array, and R2C with that plan, the n×m result back.
func TestC2RAndR2CPrimitives(t *testing.T) {
	for m := 1; m <= 14; m++ {
		for n := 1; n <= 14; n++ {
			data := intSeq(m * n)
			want := reference(data, m, n)
			if err := TransposeWith(data, m, n, Options{Direction: ForceC2R}); err != nil {
				t.Fatal(err)
			}
			if !equal(data, want) {
				t.Fatalf("C2R %dx%d wrong", m, n)
			}
			if err := TransposeWith(data, n, m, Options{Direction: ForceR2C}); err != nil {
				t.Fatal(err)
			}
			if !equal(data, intSeq(m*n)) {
				t.Fatalf("R2C %dx%d did not invert C2R", m, n)
			}
		}
	}
}

func TestAOSToSOARoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, sh := range [][2]int{{100, 3}, {1000, 4}, {4097, 7}, {5000, 16}, {333, 2}, {64, 8}} {
		count, fields := sh[0], sh[1]
		data := make([]int, count*fields)
		for i := range data {
			data[i] = rng.Int()
		}
		orig := append([]int(nil), data...)
		if err := AOSToSOA(data, count, fields); err != nil {
			t.Fatal(err)
		}
		// SoA check: field f of structure s is at f*count + s.
		for s := 0; s < count; s += 1 + count/50 {
			for f := 0; f < fields; f++ {
				if data[f*count+s] != orig[s*fields+f] {
					t.Fatalf("count=%d fields=%d: SoA wrong at s=%d f=%d", count, fields, s, f)
				}
			}
		}
		if err := SOAToAOS(data, count, fields); err != nil {
			t.Fatal(err)
		}
		if !equal(data, orig) {
			t.Fatalf("count=%d fields=%d: SoA->AoS did not invert", count, fields)
		}
	}
}

func TestAOSErrors(t *testing.T) {
	if err := AOSToSOA(make([]int, 5), 2, 3); err == nil {
		t.Error("AOSToSOA length mismatch must fail")
	}
	if err := AOSToSOA(make([]int, 6), 0, 3); err == nil {
		t.Error("AOSToSOA bad shape must fail")
	}
	if err := SOAToAOS(make([]int, 5), 2, 3); err == nil {
		t.Error("SOAToAOS length mismatch must fail")
	}
	if err := SOAToAOS(make([]int, 6), 2, 0); err == nil {
		t.Error("SOAToAOS bad shape must fail")
	}
}

func TestAOSWithExplicitOptions(t *testing.T) {
	count, fields := 2048, 6
	data := intSeq(count * fields)
	orig := append([]int(nil), data...)
	if err := AOSToSOA(data, count, fields, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if err := SOAToAOS(data, count, fields, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if !equal(data, orig) {
		t.Fatal("round trip with options failed")
	}
}

func TestSquareMatrix(t *testing.T) {
	n := 64
	data := intSeq(n * n)
	want := reference(data, n, n)
	if err := Transpose(data, n, n); err != nil {
		t.Fatal(err)
	}
	if !equal(data, want) {
		t.Fatal("square transpose wrong")
	}
}

func TestLargeRandomShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("large shapes skipped in -short")
	}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 8; trial++ {
		rows := 100 + rng.Intn(400)
		cols := 100 + rng.Intn(400)
		data := intSeq(rows * cols)
		want := reference(data, rows, cols)
		if err := TransposeWith(data, rows, cols, Options{Workers: 8}); err != nil {
			t.Fatal(err)
		}
		if !equal(data, want) {
			t.Fatalf("%dx%d: wrong result", rows, cols)
		}
	}
}
