package core

import (
	"testing"

	"inplace/internal/cr"
)

// c2rColMajorIndexed runs Algorithm 1 addressing the buffer with
// column-major indexing (element (i,j) at offset i + j*m) instead of the
// row-major indexing of algorithm1C2R.
func c2rColMajorIndexed(data []int, p *cr.Plan) {
	m, n := p.M, p.N
	at := func(i, j int) int { return data[i+j*m] }
	set := func(i, j, v int) { data[i+j*m] = v }
	colTmp := make([]int, m)
	rowTmp := make([]int, n)
	if !p.Coprime {
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				colTmp[i] = at(p.RGather(i, j), j)
			}
			for i := 0; i < m; i++ {
				set(i, j, colTmp[i])
			}
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			rowTmp[p.DPrime(i, j)] = at(i, j)
		}
		for j := 0; j < n; j++ {
			set(i, j, rowTmp[j])
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			colTmp[i] = at(p.SPrime(i, j), j)
		}
		for i := 0; i < m; i++ {
			set(i, j, colTmp[i])
		}
	}
}

// Theorem 7: the linearization assumed while performing the C2R
// transpose does not affect the permutation it induces — running the
// three passes with column-major indexing yields the same linear result
// as running them with row-major indexing, even though every
// intermediate state differs.
func TestTheorem7LinearizationIndependence(t *testing.T) {
	for m := 1; m <= 20; m++ {
		for n := 1; n <= 20; n++ {
			p := cr.NewPlan(m, n)
			rowIndexed := seqSlice(m * n)
			colIndexed := seqSlice(m * n)
			algorithm1C2R(rowIndexed, p)
			c2rColMajorIndexed(colIndexed, p)
			if !equalSlices(rowIndexed, colIndexed) {
				t.Fatalf("m=%d n=%d: linearization changed the permutation\nrow-indexed %v\ncol-indexed %v",
					m, n, rowIndexed, colIndexed)
			}
		}
	}
}

// The intermediate states genuinely differ (the theorem is not vacuous):
// for the paper's 4×8 example, the buffers after the rotation pass
// disagree between the two linearizations.
func TestTheorem7IntermediatesDiffer(t *testing.T) {
	m, n := 4, 8
	p := cr.NewPlan(m, n)
	rowIndexed := seqSlice(m * n)
	rotateColumnsGather(rowIndexed, m, n, p.Rot, 1)
	colIndexed := seqSlice(m * n)
	colTmp := make([]int, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			colTmp[i] = colIndexed[p.RGather(i, j)+j*m]
		}
		for i := 0; i < m; i++ {
			colIndexed[i+j*m] = colTmp[i]
		}
	}
	if equalSlices(rowIndexed, colIndexed) {
		t.Fatal("intermediate states should differ between linearizations")
	}
}
