package inplace_test

import (
	"fmt"

	"inplace"
)

func ExampleTranspose() {
	// A 2×3 row-major matrix.
	data := []int{
		1, 2, 3,
		4, 5, 6,
	}
	if err := inplace.Transpose(data, 2, 3); err != nil {
		panic(err)
	}
	// The same buffer now holds the 3×2 transpose.
	fmt.Println(data)
	// Output: [1 4 2 5 3 6]
}

func ExampleNewPlan() {
	// A plan resolves the pipeline a shape runs; a Planner of the same
	// shape executes it.
	p, err := inplace.NewPlan(4, 8, inplace.Options{})
	if err != nil {
		panic(err)
	}
	pl, err := inplace.NewPlanner[int](4, 8)
	if err != nil {
		panic(err)
	}
	data := make([]int, 4*8)
	for i := range data {
		data[i] = i
	}
	if err := pl.Execute(data); err != nil {
		panic(err)
	}
	fmt.Println(p, pl.Plan().UsesC2R() == p.UsesC2R())
	// Element (i, j) of the original is element (j, i) of the result:
	// original (1, 5) = 13 is now at row 5, column 1 of the 8×4 result.
	fmt.Println(data[5*4+1])
	// Output:
	// inplace.Plan(4x8 C2R) true
	// 13
}

func ExampleAOSToSOA() {
	// Three "structures" of two fields each: (x0,y0), (x1,y1), (x2,y2).
	aos := []float64{
		10, 1,
		20, 2,
		30, 3,
	}
	if err := inplace.AOSToSOA(aos, 3, 2); err != nil {
		panic(err)
	}
	// All x values are now contiguous, then all y values.
	fmt.Println(aos)
	// Output: [10 20 30 1 2 3]
}

func ExampleTransposeWith_forceC2R() {
	// The paper's Figure 1 shape: C2R applied to a row-major 3×8 array
	// produces the row-major 8×3 transpose in the same buffer.
	data := make([]int, 3*8)
	for i := range data {
		data[i] = i
	}
	if err := inplace.TransposeWith(data, 3, 8, inplace.Options{Direction: inplace.ForceC2R}); err != nil {
		panic(err)
	}
	fmt.Println(data[:6]) // first two rows of the 8×3 transpose
	// Output: [0 8 16 1 9 17]
}
