package core

import (
	"fmt"
	"testing"

	"inplace/internal/cr"
)

// Ablation benchmarks for the design choices called out in DESIGN.md §5.
// Each pair isolates one optimization of the paper's Section 4 so its
// effect can be measured in isolation.

// benchC2R times run, a C2R transposition of an m×n matrix of uint64.
func benchC2R(b *testing.B, m, n int, run func(data []uint64, p *cr.Plan)) {
	plan := cr.NewPlan(m, n)
	data := make([]uint64, m*n)
	for i := range data {
		data[i] = uint64(i)
	}
	b.SetBytes(int64(2 * m * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(data, plan)
	}
}

// engineC2R runs the Engine on workers workers.
func engineC2R(workers int) func(data []uint64, p *cr.Plan) {
	return func(data []uint64, p *cr.Plan) { c2r(data, p, Opts{Workers: workers}) }
}

// Gather-only vs scatter row shuffle (§4.2): the two closed-form
// formulations of Algorithm 1's middle pass, run directly over every
// row.
func BenchmarkAblationGatherVsScatter(b *testing.B) {
	for _, sh := range [][2]int{{512, 512}, {384, 768}} {
		m, n := sh[0], sh[1]
		tmp := make([]uint64, n)
		b.Run(fmt.Sprintf("scatter-%dx%d", m, n), func(b *testing.B) {
			benchC2R(b, m, n, func(data []uint64, p *cr.Plan) { rowShuffleScatterRange(data, p, tmp, 0, m) })
		})
		b.Run(fmt.Sprintf("gather-%dx%d", m, n), func(b *testing.B) {
			benchC2R(b, m, n, func(data []uint64, p *cr.Plan) { rowShuffleGatherRange(data, p, tmp, 0, m) })
		})
	}
}

// The Engine's tiled column passes (§4.6, §4.7, §5.2) vs Algorithm 1's
// naive per-column passes.
func BenchmarkAblationCacheAwareColumnOps(b *testing.B) {
	for _, sh := range [][2]int{{768, 768}, {1024, 512}} {
		b.Run(fmt.Sprintf("naive-%dx%d", sh[0], sh[1]), func(b *testing.B) {
			benchC2R(b, sh[0], sh[1], algorithm1C2R[uint64])
		})
		b.Run(fmt.Sprintf("cacheaware-%dx%d", sh[0], sh[1]), func(b *testing.B) {
			benchC2R(b, sh[0], sh[1], engineC2R(1))
		})
	}
}

// The §6.1 claim on an AoS shape: transposing 100000×8 records in the
// heuristic direction, R2C, keeps every column operation within 8 rows;
// forcing C2R makes the column passes walk 100000-row columns.
func BenchmarkAblationSkinny(b *testing.B) {
	m, n := 100_000, 8
	b.Run("heuristic-r2c", func(b *testing.B) {
		benchC2R(b, n, m, func(data []uint64, p *cr.Plan) { r2c(data, p, Opts{Workers: 1}) })
	})
	b.Run("long-columns-c2r", func(b *testing.B) {
		benchC2R(b, m, n, engineC2R(1))
	})
}

// Rotation primitives (§4.6): per-element strided rotation vs whole
// sub-row chunk rotation with analytic cycles.
func BenchmarkAblationRotate(b *testing.B) {
	m, n := 2048, 512
	data := make([]uint64, m*n)
	b.Run("naive-per-column", func(b *testing.B) {
		b.SetBytes(int64(2 * m * n * 8))
		for i := 0; i < b.N; i++ {
			rotateColumnsGather(data, m, n, func(j int) int { return j }, 1)
		}
	})
	b.Run("coarse-fine", func(b *testing.B) {
		b.SetBytes(int64(2 * m * n * 8))
		for i := 0; i < b.N; i++ {
			rotateColumnsCacheAware(data, m, n, func(j int) int { return j }, DefaultBlockW, 1)
		}
	})
}

// Row permutation (§4.7): per-column gather vs whole-sub-row cycle
// following.
func BenchmarkAblationRowPermute(b *testing.B) {
	m, n := 2048, 512
	plan := cr.NewPlan(m, n)
	data := make([]uint64, m*n)
	b.Run("naive-per-column", func(b *testing.B) {
		b.SetBytes(int64(2 * m * n * 8))
		for i := 0; i < b.N; i++ {
			rowPermuteGatherNaive(data, m, n, plan.Q, 1)
		}
	})
	b.Run("cycle-following", func(b *testing.B) {
		b.SetBytes(int64(2 * m * n * 8))
		for i := 0; i < b.N; i++ {
			rowPermuteCycles(data, m, n, plan.Q, DefaultBlockW, 1)
		}
	})
}

// Tile width of the Engine's tiled column passes: this plan's 8 KiB rows
// lie a page apart, so at 8-byte elements the derived width is 32, four
// 64-byte lines per tile row; narrower tiles visit each page for fewer
// lines, wider ones stream longer row segments from a larger tile.
func BenchmarkAblationBlockW(b *testing.B) {
	m, n := 1024, 1024
	for _, bw := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("bw%d", bw), func(b *testing.B) {
			plan := cr.NewPlan(m, n)
			data := make([]uint64, m*n)
			b.SetBytes(int64(2 * m * n * 8))
			for i := 0; i < b.N; i++ {
				c2r(data, plan, Opts{BlockW: bw, Workers: 1})
			}
		})
	}
}

// Parallel scaling of the decomposed passes (perfect load balance claim):
// compare 1 worker against GOMAXPROCS workers.
func BenchmarkAblationWorkers(b *testing.B) {
	for _, w := range []int{1, 0} {
		name := "gomaxprocs"
		if w == 1 {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			benchC2R(b, 1024, 768, engineC2R(w))
		})
	}
}
