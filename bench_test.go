package inplace_test

// One Go benchmark per table and figure of the paper's evaluation. These
// give stable per-target numbers under `go test -bench`; the full
// distributions (histograms, landscapes, CSVs) come from `benchorch exp`,
// which sweeps the randomized workloads.

import (
	"fmt"
	"testing"

	"inplace"
	"inplace/internal/baseline"
	"inplace/internal/bench"
	"inplace/internal/memsim"
	"inplace/internal/simd"
)

// Representative shape for the CPU comparison, inside the paper's
// [1000, 10000) range and large enough (~350 MB) to exceed even the
// oversized last-level caches of virtualized hosts — the regime in which
// the paper's locality comparison is meaningful.
const cpuM, cpuN = 6999, 6200

func fillU64(x []uint64) {
	for i := range x {
		x[i] = uint64(i)
	}
}

func fillU32(x []uint32) {
	for i := range x {
		x[i] = uint32(i)
	}
}

// BenchmarkTable1 regenerates Table 1 (and the Figure 3 contenders) at a
// fixed representative size.
func BenchmarkTable1MKLAlikeCycleFollow(b *testing.B) {
	data := make([]uint64, cpuM*cpuN)
	fillU64(data)
	b.SetBytes(int64(2 * cpuM * cpuN * 8))
	for i := 0; i < b.N; i++ {
		baseline.CycleFollowBits(data, cpuM, cpuN)
	}
}

func BenchmarkTable1C2RSequential(b *testing.B) {
	data := make([]uint64, cpuM*cpuN)
	fillU64(data)
	b.SetBytes(int64(2 * cpuM * cpuN * 8))
	o := inplace.Options{Workers: 1}
	for i := 0; i < b.N; i++ {
		if err := inplace.TransposeWith(data, cpuM, cpuN, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1C2RParallel(b *testing.B) {
	data := make([]uint64, cpuM*cpuN)
	fillU64(data)
	b.SetBytes(int64(2 * cpuM * cpuN * 8))
	o := inplace.Options{}
	for i := 0; i < b.N; i++ {
		if err := inplace.TransposeWith(data, cpuM, cpuN, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Gustavson(b *testing.B) {
	data := make([]uint64, cpuM*cpuN)
	fillU64(data)
	b.SetBytes(int64(2 * cpuM * cpuN * 8))
	for i := 0; i < b.N; i++ {
		baseline.Gustavson(data, cpuM, cpuN, baseline.GustavsonOpts{})
	}
}

// BenchmarkFig4 / BenchmarkFig5 sample the performance landscapes at
// shape classes from the paper's bands: small-n (C2R's fast band),
// square, and small-m (R2C's fast band).
func landscapeBench(b *testing.B, m, n int, dir inplace.Direction) {
	data := make([]uint64, m*n)
	fillU64(data)
	b.SetBytes(int64(2 * m * n * 8))
	o := inplace.Options{Direction: dir}
	for i := 0; i < b.N; i++ {
		if err := inplace.TransposeWith(data, m, n, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4C2RLandscape(b *testing.B) {
	for _, sh := range [][2]int{{1536, 96}, {768, 768}, {96, 1536}} {
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			landscapeBench(b, sh[0], sh[1], inplace.ForceC2R)
		})
	}
}

func BenchmarkFig5R2CLandscape(b *testing.B) {
	for _, sh := range [][2]int{{1536, 96}, {768, 768}, {96, 1536}} {
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			landscapeBench(b, sh[0], sh[1], inplace.ForceR2C)
		})
	}
}

// BenchmarkTable2 regenerates the Figure 6 / Table 2 contenders.
func BenchmarkTable2SungFloat(b *testing.B) {
	m, n := 1000, 864
	data := make([]uint32, m*n)
	fillU32(data)
	b.SetBytes(int64(2 * m * n * 4))
	for i := 0; i < b.N; i++ {
		baseline.Sung32(data, m, n, baseline.SungOpts{})
	}
}

func BenchmarkTable2C2RFloat(b *testing.B) {
	m, n := 1000, 864
	data := make([]uint32, m*n)
	fillU32(data)
	b.SetBytes(int64(2 * m * n * 4))
	for i := 0; i < b.N; i++ {
		if err := inplace.Transpose(data, m, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2C2RDouble(b *testing.B) {
	m, n := 1000, 864
	data := make([]uint64, m*n)
	fillU64(data)
	b.SetBytes(int64(2 * m * n * 8))
	for i := 0; i < b.N; i++ {
		if err := inplace.Transpose(data, m, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates the AoS->SoA conversion at the structure
// sizes of Figure 7's distribution.
func BenchmarkFig7AoSToSoA(b *testing.B) {
	for _, fields := range []int{2, 8, 31} {
		count := 400_000 / fields * fields
		b.Run(fmt.Sprintf("fields%d", fields), func(b *testing.B) {
			data := make([]uint64, count*fields)
			fillU64(data)
			b.SetBytes(int64(2 * count * fields * 8))
			for i := 0; i < b.N; i++ {
				if err := inplace.AOSToSOA(data, count, fields); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8 / BenchmarkFig9 run the modeled SIMD access patterns and
// report the modeled bandwidth as a custom metric alongside the
// simulator's own speed.
func simdModelBench(b *testing.B, kind simd.AccessKind, random bool, store bool) {
	const W, K, structs = 32, 8, 4096
	mem := memsim.New(memsim.K20c())
	w := simd.NewWarp(W, K, mem)
	plan := simd.PlanFor(w)
	data := make([]uint64, structs*K)
	idx := make([]int, W)
	rng := bench.NewRNG(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if random {
			for l := range idx {
				idx[l] = rng.Intn(structs)
			}
		} else {
			base := (i * W) % (structs - W + 1)
			for l := range idx {
				idx[l] = base + l
			}
		}
		switch {
		case store && kind == simd.AccessC2R:
			simd.CoalescedStore(w, plan, data, idx)
		case store && kind == simd.AccessDirect:
			simd.DirectStore(w, data, idx)
		case store && kind == simd.AccessVector:
			simd.VectorStore(w, data, idx)
		case kind == simd.AccessC2R:
			simd.CoalescedLoad(w, plan, data, idx)
		case kind == simd.AccessDirect:
			simd.DirectLoad(w, data, idx)
		default:
			simd.VectorLoad(w, data, idx)
		}
	}
	b.ReportMetric(mem.Stats().EffectiveGBps, "modelGB/s")
}

func BenchmarkFig8UnitStrideStore(b *testing.B) {
	for _, kind := range []simd.AccessKind{simd.AccessC2R, simd.AccessDirect, simd.AccessVector} {
		b.Run(kind.String(), func(b *testing.B) { simdModelBench(b, kind, false, true) })
	}
}

func BenchmarkFig8UnitStrideLoad(b *testing.B) {
	for _, kind := range []simd.AccessKind{simd.AccessC2R, simd.AccessDirect, simd.AccessVector} {
		b.Run(kind.String(), func(b *testing.B) { simdModelBench(b, kind, false, false) })
	}
}

func BenchmarkFig9RandomScatter(b *testing.B) {
	for _, kind := range []simd.AccessKind{simd.AccessC2R, simd.AccessDirect, simd.AccessVector} {
		b.Run(kind.String(), func(b *testing.B) { simdModelBench(b, kind, true, true) })
	}
}

func BenchmarkFig9RandomGather(b *testing.B) {
	for _, kind := range []simd.AccessKind{simd.AccessC2R, simd.AccessDirect, simd.AccessVector} {
		b.Run(kind.String(), func(b *testing.B) { simdModelBench(b, kind, true, false) })
	}
}

// BenchmarkAblationHeuristic quantifies the §5.2 direction heuristic
// against always-C2R and always-R2C on a shape where the choice matters.
func BenchmarkAblationHeuristic(b *testing.B) {
	m, n := 1500, 6000 // out-of-cache, 4:1 aspect: C2R's fast regime; the heuristic must pick it
	for _, cfg := range []struct {
		name string
		dir  inplace.Direction
	}{
		{"always-c2r", inplace.ForceC2R},
		{"always-r2c", inplace.ForceR2C},
		{"heuristic", inplace.HeuristicDirection},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			data := make([]uint64, m*n)
			fillU64(data)
			b.SetBytes(int64(2 * m * n * 8))
			o := inplace.Options{Direction: cfg.dir}
			for i := 0; i < b.N; i++ {
				if err := inplace.TransposeWith(data, m, n, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Plan reuse (the Planner API's amortization claim) ---
//
// The reuse benchmarks measure the same transpose twice: cold builds a
// fresh Planner every iteration (planning arithmetic and scratch
// allocation on the critical path), reused executes one prebuilt
// Planner. The gap is the amortized cost the plan cache removes from
// TransposeWith; the reused benchmarks must also report 0 allocs/op.

// planReuseM×planReuseN is the acceptance shape: a million 4-field
// structures, the AoS↔SoA workload of §6.
const planReuseM, planReuseN = 1_000_000, 4

var planReuseOpts = inplace.Options{
	Workers:   1,
	Direction: inplace.ForceC2R,
}

func BenchmarkPlanReuseColdSkinny(b *testing.B) {
	data := make([]uint64, planReuseM*planReuseN)
	fillU64(data)
	b.SetBytes(int64(2 * planReuseM * planReuseN * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := inplace.NewPlanner[uint64](planReuseM, planReuseN, planReuseOpts)
		if err != nil {
			b.Fatal(err)
		}
		if err := pl.Execute(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanReuseWarmSkinny(b *testing.B) {
	data := make([]uint64, planReuseM*planReuseN)
	fillU64(data)
	pl, err := inplace.NewPlanner[uint64](planReuseM, planReuseN, planReuseOpts)
	if err != nil {
		b.Fatal(err)
	}
	if err := pl.Execute(data); err != nil { // warm arena and cycle cache
		b.Fatal(err)
	}
	b.SetBytes(int64(2 * planReuseM * planReuseN * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pl.Execute(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanReuseColdCacheAware(b *testing.B) {
	const m, n = 512, 384
	data := make([]uint64, m*n)
	fillU64(data)
	b.SetBytes(int64(2 * m * n * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := inplace.NewPlanner[uint64](m, n, inplace.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := pl.Execute(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanReuseWarmCacheAware(b *testing.B) {
	const m, n = 512, 384
	data := make([]uint64, m*n)
	fillU64(data)
	pl, err := inplace.NewPlanner[uint64](m, n, inplace.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := pl.Execute(data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(2 * m * n * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pl.Execute(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanReuseBatch measures the cached-planner batch path: many
// tiny matrices, where per-call planning would dominate the actual data
// movement.
func BenchmarkPlanReuseBatch(b *testing.B) {
	const count, m, n = 4096, 31, 7
	data := make([]uint64, count*m*n)
	fillU64(data)
	b.SetBytes(int64(2 * count * m * n * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inplace.TransposeBatch(data, count, m, n); err != nil {
			b.Fatal(err)
		}
	}
}
