package bench

import (
	"fmt"
	"runtime"

	"inplace"
	"inplace/internal/benchfmt"
	"inplace/internal/mathutil"
	"inplace/internal/stats"
	"inplace/internal/tune"
)

// The micro suite is the machine-readable bench trajectory: a fixed set
// of named micro-experiments whose ns/op, GB/s and allocs/op land in the
// versioned BENCH envelope (internal/benchfmt). cmd/benchorch enumerates
// the matrix per preset, `benchorch run -json` writes the envelope and
// `benchorch compare` gates regressions against a committed baseline,
// so the repo-root BENCH_PR*.json files form a comparable history
// instead of living only in scrollback.

// MicroCase is one named micro benchmark: an m×n matrix of elem-byte
// elements transposed once per op (the throughput normalization), with
// the setup (buffers, planners, warm-up state) built by Prep outside the
// measured region.
type MicroCase struct {
	Name      string
	M, N      int
	ElemBytes int
	Prep      func() func() // returns the per-op body
	Cleanup   func()        // optional: releases Prep's resources (temp dirs, handles)
}

// microDims fixes the micro shape families at one workload scale. The
// families mirror the library's uses: a bulk shape measured cold and
// warm, a skinny AoS shape, the cached ad-hoc path, a batch, the
// out-of-core engine and the AoS conversion.
type microDims struct {
	coldM, coldN     int // planning on the critical path
	warmM, warmN     int // steady-state Execute
	skinnyM, skinnyN int // skinny AoS shape, C2R forced
	cachedM, cachedN int // plan-cache hit + Execute
	batchCount       int // batched transpose
	batchM, batchN   int
	oocM, oocN       int // out-of-core engine, memory-backed
	aosM, aosN       int // AoS -> SoA conversion

	storeRows, storeFields, storeProj, storeChunk int // tile-store warm projection

	permN, permH, permW, permC int // NHWC<->NCHW axis-permutation round trip
}

func dimsFor(scale Scale) microDims {
	switch scale {
	case TinyScale:
		return microDims{
			coldM: 64, coldN: 48,
			warmM: 96, warmN: 64,
			skinnyM: 8192, skinnyN: 8,
			cachedM: 48, cachedN: 64,
			batchCount: 16, batchM: 24, batchN: 16,
			oocM: 64, oocN: 48,
			aosM: 20000, aosN: 4,
			storeRows: 2048, storeFields: 16, storeProj: 3, storeChunk: 512,
			permN: 2, permH: 8, permW: 8, permC: 4,
		}
	case LargeScale, PaperScale:
		return microDims{
			coldM: 512, coldN: 384,
			warmM: 1024, warmN: 768,
			skinnyM: 400000, skinnyN: 8,
			cachedM: 384, cachedN: 512,
			batchCount: 64, batchM: 96, batchN: 64,
			oocM: 512, oocN: 384,
			aosM: 500000, aosN: 4,
			storeRows: 32768, storeFields: 16, storeProj: 3, storeChunk: 4096,
			permN: 8, permH: 48, permW: 48, permC: 16,
		}
	default: // SmallScale: the dims of the historical micro suite
		return microDims{
			coldM: 256, coldN: 192,
			warmM: 512, warmN: 384,
			skinnyM: 100000, skinnyN: 8,
			cachedM: 192, cachedN: 256,
			batchCount: 64, batchM: 48, batchN: 32,
			oocM: 256, oocN: 192,
			aosM: 200000, aosN: 4,
			storeRows: 8192, storeFields: 16, storeProj: 3, storeChunk: 1024,
			permN: 4, permH: 32, permW: 32, permC: 8,
		}
	}
}

// MicroMatrix enumerates the micro suite at one scale over the preset's
// axes: every shape family at every worker count, and the out-of-core
// family additionally at every scratch-budget divisor (budget =
// file/div, clamped to the engine floor). Case names are fully
// axis-qualified — family, dims, _w<workers> and _b<divisor> — so two
// reports compare series by name only when every axis matches.
func MicroMatrix(scale Scale, workers []int, budgetDivs []int) []MicroCase {
	d := dimsFor(scale)
	if len(workers) == 0 {
		workers = []int{1}
	}
	if len(budgetDivs) == 0 {
		budgetDivs = []int{4}
	}
	var cases []MicroCase
	for _, w := range workers {
		w := w
		cases = append(cases,
			MicroCase{
				Name: fmt.Sprintf("transpose_cold_%dx%d_w%d", d.coldM, d.coldN, w),
				M:    d.coldM, N: d.coldN, ElemBytes: 8,
				Prep: func() func() {
					data := gridBuf[uint64](d.coldM, d.coldN)
					FillSeq(data)
					return func() {
						// Planning on the critical path: schedule, engine
						// and arena rebuilt every op.
						pl, err := inplace.NewPlanner[uint64](d.coldM, d.coldN, inplace.Options{Workers: w})
						if err != nil {
							panic(err)
						}
						if err := pl.Execute(data); err != nil {
							panic(err)
						}
					}
				},
			},
			MicroCase{
				Name: fmt.Sprintf("planner_warm_cacheaware_%dx%d_w%d", d.warmM, d.warmN, w),
				M:    d.warmM, N: d.warmN, ElemBytes: 8,
				Prep: warmPlanner(d.warmM, d.warmN, inplace.Options{Workers: w}),
			},
			MicroCase{
				Name: fmt.Sprintf("planner_warm_skinny_%dx%d_w%d", d.skinnyM, d.skinnyN, w),
				M:    d.skinnyM, N: d.skinnyN, ElemBytes: 8,
				Prep: warmPlanner(d.skinnyM, d.skinnyN, inplace.Options{Workers: w, Direction: inplace.ForceC2R}),
			},
			MicroCase{
				Name: fmt.Sprintf("transpose_cached_%dx%d_w%d", d.cachedM, d.cachedN, w),
				M:    d.cachedM, N: d.cachedN, ElemBytes: 8,
				Prep: func() func() {
					data := gridBuf[uint64](d.cachedM, d.cachedN)
					FillSeq(data)
					return func() {
						// The cached-planner ad-hoc path: plannerFor hit +
						// Execute.
						if err := inplace.TransposeWith(data, d.cachedM, d.cachedN, inplace.Options{Workers: w}); err != nil {
							panic(err)
						}
					}
				},
			},
			MicroCase{
				Name: fmt.Sprintf("transpose_batch_%dof%dx%d_w%d", d.batchCount, d.batchM, d.batchN, w),
				M:    d.batchCount * d.batchM, N: d.batchN, ElemBytes: 8,
				Prep: func() func() {
					data := gridBuf[uint64](d.batchCount*d.batchM, d.batchN)
					FillSeq(data)
					return func() {
						if err := inplace.TransposeBatch(data, d.batchCount, d.batchM, d.batchN, inplace.Options{Workers: w}); err != nil {
							panic(err)
						}
					}
				},
			},
			MicroCase{
				Name: fmt.Sprintf("permute_nhwc_%dx%dx%dx%d_w%d", d.permN, d.permH, d.permW, d.permC, w),
				M:    d.permN * d.permH * d.permW, N: d.permC, ElemBytes: 8,
				Prep: func() func() {
					// One op is the NHWC->NCHW round trip on warm planners,
					// so the buffer's layout is invariant across ops.
					nhwc := []int{d.permN, d.permH, d.permW, d.permC}
					nchw := []int{d.permN, d.permC, d.permH, d.permW}
					fwd, err := inplace.NewPermutePlanner[uint64](nhwc, []int{0, 3, 1, 2}, inplace.Options{Workers: w})
					if err != nil {
						panic(err)
					}
					inv, err := inplace.NewPermutePlanner[uint64](nchw, []int{0, 2, 3, 1}, inplace.Options{Workers: w})
					if err != nil {
						panic(err)
					}
					data := make([]uint64, d.permN*d.permH*d.permW*d.permC)
					FillSeq(data)
					if err := fwd.Execute(data); err != nil {
						panic(err)
					}
					if err := inv.Execute(data); err != nil {
						panic(err)
					}
					return func() {
						if err := fwd.Execute(data); err != nil {
							panic(err)
						}
						if err := inv.Execute(data); err != nil {
							panic(err)
						}
					}
				},
			},
			MicroCase{
				Name: fmt.Sprintf("aos_to_soa_%dx%d_w%d", d.aosM, d.aosN, w),
				M:    d.aosM, N: d.aosN, ElemBytes: 8,
				Prep: func() func() {
					data := gridBuf[uint64](d.aosM, d.aosN)
					FillSeq(data)
					return func() {
						if err := inplace.AOSToSOA(data, d.aosM, d.aosN, inplace.Options{Workers: w}); err != nil {
							panic(err)
						}
					}
				},
			},
		)
		cases = append(cases, tilestoreMicroCase(d, w))
		for _, div := range budgetDivs {
			div := div
			cases = append(cases, MicroCase{
				Name: fmt.Sprintf("ooc_membacked_%dx%d_w%d_b%d", d.oocM, d.oocN, w, div),
				M:    d.oocM, N: d.oocN, ElemBytes: 8,
				Prep: func() func() {
					// The out-of-core engine on a memory backend: schedule,
					// pipeline and panel kernels without disk noise. The
					// shape alternates each op as the backend flips
					// orientation.
					nbytes, ok := mathutil.CheckedMul(len(gridBuf[byte](d.oocM, d.oocN)), 8)
					if !ok {
						panic("bench: ooc micro shape overflows int")
					}
					mf := &memFile{b: make([]byte, nbytes)}
					rows, cols := d.oocM, d.oocN
					budget := int64(len(mf.b)) / int64(div)
					return func() {
						if _, err := inplace.TransposeFile(mf, rows, cols, 8, inplace.OOCOptions{
							Budget: budget, Workers: w,
						}); err != nil {
							panic(err)
						}
						rows, cols = cols, rows
					}
				},
			})
		}
	}
	return cases
}

// warmPlanner builds the planner and warms its arena outside the
// measured region, so the case reports the steady-state Execute.
func warmPlanner(rows, cols int, o inplace.Options) func() func() {
	return func() func() {
		pl, err := inplace.NewPlanner[uint64](rows, cols, o)
		if err != nil {
			panic(err)
		}
		data := gridBuf[uint64](rows, cols)
		FillSeq(data)
		if err := pl.Execute(data); err != nil {
			panic(err)
		}
		return func() {
			if err := pl.Execute(data); err != nil {
				panic(err)
			}
		}
	}
}

// MeasureMicro measures one case with the tuner's robust timing loop
// (internal/tune.Measure) plus an exact allocation count, and returns
// the envelope experiment: legacy median scalars plus the full ns/op and
// GB/s sample series with their summaries.
func MeasureMicro(c MicroCase, opts tune.MeasureOpts) benchfmt.Experiment {
	if c.Cleanup != nil {
		defer c.Cleanup()
	}
	body := c.Prep()
	allocs, allocBytes := allocsPerOp(body, 2)

	nsSamples := tune.Measure(body, opts)
	bytes := 2 * float64(c.M) * float64(c.N) * float64(c.ElemBytes)
	gbSamples := make([]float64, len(nsSamples))
	for i, ns := range nsSamples {
		gbSamples[i] = bytes / ns // ns/op and GB/s share the 1e9 factor
	}
	medNs := stats.Median(nsSamples)
	return benchfmt.Experiment{
		Name:        c.Name,
		Kind:        benchfmt.KindMicro,
		NsPerOp:     medNs,
		GBps:        bytes / medNs,
		AllocsPerOp: allocs,
		BytesPerOp:  allocBytes,
		Series: []benchfmt.Series{
			{Name: "ns_per_op", Unit: "ns/op", Samples: nsSamples, Summary: stats.Summarize(nsSamples)},
			{Name: "gbps", Unit: "GB/s", HigherIsBetter: true, Samples: gbSamples, Summary: stats.Summarize(gbSamples)},
		},
	}
}

// allocsPerOp counts heap allocations and allocated bytes per call of
// body, testing.AllocsPerRun-style: GOMAXPROCS pinned to 1 so no
// concurrent goroutine pollutes the counters, then one warm-up call —
// arenas, pool spin-up, and the per-P caches
// of the one remaining P, which the pin leaves cold — then runs calls
// averaged (an even count so cases that flip orientation each op
// average both directions).
func allocsPerOp(body func(), runs int) (allocs, bytes int64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	body()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		body()
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) / int64(runs),
		int64(after.TotalAlloc-before.TotalAlloc) / int64(runs)
}
