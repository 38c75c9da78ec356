package inplace_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"inplace"
)

func transposeRef(data []uint64, rows, cols int) []uint64 {
	out := make([]uint64, len(data))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[j*rows+i] = data[i*cols+j]
		}
	}
	return out
}

func TestPlannerMatchesReference(t *testing.T) {
	shapes := []struct{ rows, cols int }{
		{97, 101}, {96, 120}, {64, 64}, {2000, 4}, {4, 2000}, {1, 17}, {17, 1},
	}
	dirs := []inplace.Direction{inplace.HeuristicDirection, inplace.ForceC2R, inplace.ForceR2C}
	for _, sh := range shapes {
		for _, dir := range dirs {
			for _, workers := range []int{1, 4} {
				o := inplace.Options{Direction: dir, Workers: workers}
				pl, err := inplace.NewPlanner[uint64](sh.rows, sh.cols, o)
				if err != nil {
					t.Fatal(err)
				}
				data := make([]uint64, sh.rows*sh.cols)
				for i := range data {
					data[i] = uint64(i) * 0x9e3779b97f4a7c15
				}
				want := transposeRef(data, sh.rows, sh.cols)
				// Two rounds through the same planner: the second run
				// executes against the recycled scratch state.
				for round := 0; round < 2; round++ {
					if err := pl.Execute(data); err != nil {
						t.Fatal(err)
					}
					for i := range data {
						if data[i] != want[i] {
							t.Fatalf("%dx%d direction %d workers=%d round %d: wrong at %d",
								sh.rows, sh.cols, dir, workers, round, i)
						}
					}
					copy(data, want)
					want = transposeRef(data, sh.cols, sh.rows)
					pl2, err := inplace.NewPlanner[uint64](sh.cols, sh.rows, o)
					if err != nil {
						t.Fatal(err)
					}
					pl = pl2
				}
			}
		}
	}
}

func TestPlannerErrors(t *testing.T) {
	if _, err := inplace.NewPlanner[int](0, 5); !errors.Is(err, inplace.ErrShape) {
		t.Errorf("NewPlanner(0, 5): got %v, want ErrShape", err)
	}
	pl, err := inplace.NewPlanner[int](3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Execute(make([]int, 14)); !errors.Is(err, inplace.ErrLength) {
		t.Errorf("Execute with short buffer: got %v, want ErrLength", err)
	}
	if pl.Rows() != 3 || pl.Cols() != 5 {
		t.Errorf("Rows/Cols = %d/%d, want 3/5", pl.Rows(), pl.Cols())
	}
}

// TestPlannerSharedConcurrently drives one Planner from many goroutines
// on distinct buffers — the documented concurrency contract. Under
// `go test -race` this checks that concurrent executions never share a
// scratch state or a worker frame, across both the sequential and the
// pool-dispatched parallel paths, on a rectangle and on a square, whose
// swap sweep keeps a dispatch body in each execution state.
func TestPlannerSharedConcurrently(t *testing.T) {
	const goroutines = 8
	const iters = 6
	configs := []inplace.Options{
		{Workers: 1},
		{Workers: 4},
		{Workers: 4, Direction: inplace.ForceC2R},
		{Workers: 3, BlockWidth: 3},
	}
	for _, sh := range []struct {
		prefix     string
		rows, cols int
	}{{"config", 611, 16}, {"square_config", 150, 150}} {
		for ci, o := range configs {
			o := o
			t.Run(fmt.Sprintf("%s%d", sh.prefix, ci), func(t *testing.T) {
				rows, cols := sh.rows, sh.cols
				pl, err := inplace.NewPlanner[uint64](rows, cols, o)
				if err != nil {
					t.Fatal(err)
				}
				base := make([]uint64, rows*cols)
				for i := range base {
					base[i] = uint64(i)*0x9e3779b97f4a7c15 + uint64(ci)
				}
				want := transposeRef(base, rows, cols)
				back, err := inplace.NewPlanner[uint64](cols, rows, o)
				if err != nil {
					t.Fatal(err)
				}

				var wg sync.WaitGroup
				errs := make([]error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						data := append([]uint64(nil), base...)
						for it := 0; it < iters; it++ {
							if err := pl.Execute(data); err != nil {
								errs[g] = err
								return
							}
							for i := range data {
								if data[i] != want[i] {
									errs[g] = fmt.Errorf("goroutine %d iter %d: wrong at %d", g, it, i)
									return
								}
							}
							if err := back.Execute(data); err != nil {
								errs[g] = err
								return
							}
							for i := range data {
								if data[i] != base[i] {
									errs[g] = fmt.Errorf("goroutine %d iter %d: round trip wrong at %d", g, it, i)
									return
								}
							}
						}
					}(g)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestTransposeWithCachedPlanner exercises the implicit planner cache:
// repeated TransposeWith calls of one shape hit the same cached planner
// and must stay correct run after run.
func TestTransposeWithCachedPlanner(t *testing.T) {
	const rows, cols = 123, 77
	base := make([]uint64, rows*cols)
	for i := range base {
		base[i] = uint64(i) * 2654435761
	}
	want := transposeRef(base, rows, cols)
	for round := 0; round < 3; round++ {
		data := append([]uint64(nil), base...)
		if err := inplace.TransposeWith(data, rows, cols, inplace.Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if data[i] != want[i] {
				t.Fatalf("round %d: wrong at %d", round, i)
			}
		}
	}
}
