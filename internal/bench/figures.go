package bench

import (
	"fmt"
	"strings"

	"inplace/internal/core"
	"inplace/internal/cr"
	"inplace/internal/layout"
)

func init() {
	Register(Experiment{
		ID: "fig1", Title: "C2R and R2C permutation demo (3x8)",
		Series: []string{"fig1"}, Deterministic: true,
		Run: Fig1,
	})
	Register(Experiment{
		ID: "fig2", Title: "stage-by-stage C2R transpose demo (4x8)",
		Series: []string{"fig2"}, Deterministic: true,
		Run: Fig2,
	})
}

// Fig1 reproduces the paper's Figure 1: the C2R and R2C permutations of
// a 3×8 array.
func Fig1(Config) []Result {
	m, n := 3, 8
	rowMajor := gridBuf[int](m, n)
	for i := range rowMajor {
		rowMajor[i] = i
	}
	// The right-hand matrix of Figure 1 holds 0..23 in column-major
	// reading order; applying C2R to it yields the row-major matrix.
	colMajorish := gridBuf[int](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			colMajorish[i*n+j] = i + j*m
		}
	}
	var b strings.Builder
	b.WriteString("Fig1: C2R and R2C transpositions, m=3, n=8\n\n")
	b.WriteString("Rows-to-Columns source (values in row-major reading order):\n")
	b.WriteString(layout.NewMatrix(rowMajor, m, n, layout.RowMajor).String())
	plan := cr.NewPlan(m, n)
	after := append([]int(nil), rowMajor...)
	core.NewEngine[int](plan, core.Opts{}, false).Run(after)
	// Viewed as 3×8 again (the paper redraws it with the same shape):
	b.WriteString("\nAfter R2C (values now in column reading order):\n")
	b.WriteString(layout.NewMatrix(after, m, n, layout.RowMajor).String())
	matches := true
	for i := range after {
		if after[i] != colMajorish[i] {
			matches = false
		}
	}
	fmt.Fprintf(&b, "\nmatches the paper's right-hand matrix: %v\n", matches)
	back := append([]int(nil), after...)
	core.NewEngine[int](plan, core.Opts{}, true).Run(back)
	restored := true
	for i := range back {
		if back[i] != rowMajor[i] {
			restored = false
		}
	}
	b.WriteString("\nC2R restores the original:\n")
	b.WriteString(layout.NewMatrix(back, m, n, layout.RowMajor).String())
	fmt.Fprintf(&b, "restored: %v\n", restored)
	return []Result{{Name: "fig1", Text: b.String()}}
}

// Fig2 reproduces Figure 2: the three stages of the in-place C2R
// transpose of a 4×8 array, shown — as in the paper — with the buffer
// drawn in its column-major reading order.
func Fig2(Config) []Result {
	m, n := 4, 8
	p := cr.NewPlan(m, n)
	data := gridBuf[int](m, n)
	for i := range data {
		data[i] = i
	}
	var b strings.Builder
	draw := func(title string, x []int) {
		b.WriteString(title + "\n")
		// The paper draws the linear buffer as a column-major 4×8 view.
		b.WriteString(layout.NewMatrix(x, m, n, layout.ColMajor).String())
		b.WriteString("\n")
	}
	b.WriteString("Fig2: C2R transpose of a 4x8 matrix, stage by stage\n\n")
	draw("initial (linear 0..31, drawn column-major as in the paper):", data)

	// The paper runs the stages with column-major indexing of the buffer
	// — by Theorem 7 the final permutation is the same as with row-major
	// indexing (internal/core's choice); only the intermediate states
	// differ. Element (i, j) lives at offset i + j*m.
	at := func(x []int, i, j int) int { return x[i+j*m] }
	set := func(x []int, i, j, v int) { x[i+j*m] = v }

	// Stage 1: column rotation (gather r_j).
	stage := append([]int(nil), data...)
	tmp := make([]int, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			tmp[i] = at(stage, p.RGather(i, j), j)
		}
		for i := 0; i < m; i++ {
			set(stage, i, j, tmp[i])
		}
	}
	draw("after column rotation (eq. 23):", stage)

	// Stage 2: row shuffle (scatter d').
	rowTmp := make([]int, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			rowTmp[p.DPrime(i, j)] = at(stage, i, j)
		}
		for j := 0; j < n; j++ {
			set(stage, i, j, rowTmp[j])
		}
	}
	draw("after row shuffle (eq. 24):", stage)

	// Stage 3: column shuffle (gather s').
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			tmp[i] = at(stage, p.SPrime(i, j), j)
		}
		for i := 0; i < m; i++ {
			set(stage, i, j, tmp[i])
		}
	}
	draw("after column shuffle (eq. 26) — the transpose, linearized:", stage)

	want := gridBuf[int](m, n)
	core.OutOfPlace(want, data, m, n)
	match := true
	for i := range want {
		if want[i] != stage[i] {
			match = false
		}
	}
	fmt.Fprintf(&b, "matches out-of-place transpose: %v\n", match)
	return []Result{{Name: "fig2", Text: b.String()}}
}
