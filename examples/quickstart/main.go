// Quickstart: transpose a rectangular matrix in place and reuse a plan.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"inplace"
)

func main() {
	// A small demonstration first: a 3×8 row-major matrix.
	const m, n = 3, 8
	data := make([]int, m*n)
	for i := range data {
		data[i] = i
	}
	fmt.Println("before (3x8):")
	printMatrix(data, m, n)

	if err := inplace.Transpose(data, m, n); err != nil {
		log.Fatal(err)
	}
	fmt.Println("after (8x3), same buffer:")
	printMatrix(data, n, m)

	// A realistic size: transpose a 1500×2300 float64 matrix in place.
	// A Planner amortizes the gcd/modular-inverse/reciprocal setup and the
	// scratch when the same shape is transposed repeatedly.
	rows, cols := 1500, 2300
	//xpose:allow indexoverflow -- demo dimensions are small constants
	big := make([]float64, rows*cols)
	for i := range big {
		big[i] = float64(i)
	}
	pl, err := inplace.NewPlanner[float64](rows, cols)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplan: %v\n", pl.Plan())

	start := time.Now()
	if err := pl.Execute(big); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	gb := 2 * float64(rows) * float64(cols) * 8 / 1e9
	fmt.Printf("transposed %dx%d float64 in %v (%.2f GB/s)\n",
		rows, cols, elapsed.Round(time.Microsecond), gb/elapsed.Seconds())

	// Verify a few entries: element (i, j) must now live at (j, i).
	for _, p := range [][2]int{{0, 1}, {17, 1200}, {1499, 2299}} {
		i, j := p[0], p[1]
		got := big[j*rows+i]
		want := float64(i*cols + j)
		if got != want {
			log.Fatalf("verification failed at (%d,%d): got %v want %v", i, j, got, want)
		}
	}
	fmt.Println("spot checks passed")
}

func printMatrix(x []int, rows, cols int) {
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			fmt.Printf("%4d", x[i*cols+j])
		}
		fmt.Println()
	}
}
