package bench

import (
	"fmt"
	"runtime"
	"time"

	"inplace"
	"inplace/internal/baseline"
)

// Config parameterizes an experiment run.
type Config struct {
	Scale   Scale
	Workers int // 0 = GOMAXPROCS
	Seed    int64
	// Tune makes the "tuned" experiment run the autotuner in-process
	// (cmd/benchsuite -tune); without it the experiment relies on wisdom
	// already loaded via -wisdom, if any.
	Tune bool
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result is one rendered artifact of an experiment: a text block for the
// console and an optional CSV for plotting.
type Result struct {
	Name string // e.g. "fig3"
	Text string
	CSV  string // empty if the artifact has no series form
}

func init() {
	Register(Experiment{
		ID: "fig3", Title: "CPU in-place transposition throughput histograms",
		Unit: "GB/s", Series: []string{"fig3"},
		Run: Fig3,
	})
	Register(Experiment{
		ID: "table1", Title: "median CPU throughput per contender",
		Axes: []string{"method"}, Unit: "GB/s", Series: []string{"table1"},
		Run: Table1,
	})
	Register(Experiment{
		ID: "fig4", Title: "C2R performance landscape over the (m, n) grid",
		Axes: []string{"m", "n"}, Unit: "GB/s", Series: []string{"fig4", "fig4model"},
		Run: Fig4,
	})
	Register(Experiment{
		ID: "fig5", Title: "R2C performance landscape over the (m, n) grid",
		Axes: []string{"m", "n"}, Unit: "GB/s", Series: []string{"fig5", "fig5model"},
		Run: Fig5,
	})
	Register(Experiment{
		ID: "fig6", Title: "GPU-class contender throughput histograms",
		Unit: "GB/s", Series: []string{"fig6"},
		Run: Fig6,
	})
	Register(Experiment{
		ID: "table2", Title: "median GPU-class throughput per contender",
		Axes: []string{"method"}, Unit: "GB/s", Series: []string{"table2"},
		Run: Table2,
	})
	Register(Experiment{
		ID: "fig7", Title: "AoS to SoA in-place conversion throughput",
		Axes: []string{"count", "fields"}, Unit: "GB/s", Series: []string{"fig7"},
		Run: Fig7,
	})
}

// --- Figure 3 / Table 1: CPU in-place transposition throughput ---

// cpuMethods returns the four labeled CPU contenders of Figure 3.
func cpuMethods(workers int) []struct {
	Label string
	Run   func(data []uint64, m, n int)
} {
	return []struct {
		Label string
		Run   func(data []uint64, m, n int)
	}{
		{"MKL-alike (cycle following)", func(data []uint64, m, n int) {
			baseline.CycleFollowBits(data, m, n)
		}},
		{"C2R/R2C heuristic, 1 worker", func(data []uint64, m, n int) {
			mustTranspose(data, m, n, inplace.Options{Workers: 1})
		}},
		{fmt.Sprintf("C2R/R2C heuristic, parallel (%d workers)", workers), func(data []uint64, m, n int) {
			mustTranspose(data, m, n, inplace.Options{Workers: workers})
		}},
		{"Gustavson-style (tiled)", func(data []uint64, m, n int) {
			baseline.Gustavson(data, m, n, baseline.GustavsonOpts{Workers: workers})
		}},
	}
}

func mustTranspose[T any](data []T, m, n int, o inplace.Options) {
	if err := inplace.TransposeWith(data, m, n, o); err != nil {
		panic(err)
	}
}

// memoized sample sets: Figure 3 and Table 1 (and Figure 6 and Table 2)
// summarize the same run, so the sweep executes once per configuration.
var (
	cpuMemo = map[Config]memoEntry{}
	gpuMemo = map[Config]memoEntry{}
)

type memoEntry struct {
	labels  []string
	samples [][]float64
}

// runCPU measures all Figure 3 contenders over the Table 1 workload and
// returns per-method throughput samples.
func runCPU(cfg Config) (labels []string, samples [][]float64) {
	if e, ok := cpuMemo[cfg]; ok {
		return e.labels, e.samples
	}
	defer func() { cpuMemo[cfg] = memoEntry{labels, samples} }()
	w := CPUWorkload(cfg.Scale)
	rng := NewRNG(cfg.Seed + 3)
	methods := cpuMethods(cfg.workers())
	samples = make([][]float64, len(methods))
	for s := 0; s < w.Samples; s++ {
		m := w.Dim.Rand(rng)
		n := w.Dim.Rand(rng)
		data := gridBuf[uint64](m, n)
		for mi, method := range methods {
			FillSeq(data)
			d := Time(func() { method.Run(data, m, n) })
			samples[mi] = append(samples[mi], ThroughputGBps(m, n, 8, d))
		}
	}
	for _, m := range methods {
		labels = append(labels, m.Label)
	}
	return labels, samples
}

// Fig3 renders the CPU throughput histograms.
func Fig3(cfg Config) []Result {
	labels, samples := runCPU(cfg)
	var out []Result
	var csvRows [][]float64
	for i := range samples[0] {
		row := make([]float64, len(samples))
		for j := range samples {
			row[j] = samples[j][i]
		}
		csvRows = append(csvRows, row)
	}
	text := ""
	for i, lab := range labels {
		_, max := MinMax(samples[i])
		text += RenderHistogram("Fig3: "+lab+" [GB/s]", samples[i], 0, max*1.05+1e-9, 20, 40) + "\n"
	}
	out = append(out, Result{Name: "fig3", Text: text, CSV: CSV(labels, csvRows)})
	return out
}

// Table1 renders the median-throughput summary of the same workload.
func Table1(cfg Config) []Result {
	labels, samples := runCPU(cfg)
	rows := make([]Row, len(labels))
	var csvRows [][]float64
	for i, lab := range labels {
		rows[i] = Row{Label: lab, Value: Median(samples[i]), Unit: "GB/s"}
		csvRows = append(csvRows, []float64{float64(i), Median(samples[i])})
	}
	text := RenderTable("Table 1: median in-place transposition throughput (64-bit elements)", rows)
	ratio := rows[1].Value / rows[0].Value
	text += fmt.Sprintf("\ndecomposition (1 worker) vs MKL-alike speedup: %.2fx (paper: 336/67 = 5.0x)\n", ratio)
	return []Result{{Name: "table1", Text: text, CSV: CSV([]string{"method", "median_gbps"}, csvRows)}}
}

// --- Figures 4 and 5: C2R / R2C performance landscapes ---

func landscape(cfg Config, useC2R bool) (ms, ns []int, grid [][]float64) {
	dims := LandscapeGrid(cfg.Scale)
	grid = make([][]float64, len(dims))
	dirOpt := inplace.ForceR2C
	if useC2R {
		dirOpt = inplace.ForceC2R
	}
	for i, m := range dims {
		grid[i] = make([]float64, len(dims))
		for j, n := range dims {
			data := gridBuf[uint64](m, n)
			FillSeq(data)
			o := inplace.Options{Workers: cfg.workers(), Direction: dirOpt}
			d := Time(func() { mustTranspose(data, m, n, o) })
			grid[i][j] = ThroughputGBps(m, n, 8, d)
		}
	}
	return dims, dims, grid
}

// Fig4 sweeps the C2R algorithm over the (m, n) grid, measured on the
// host and modeled for the paper's K20c.
func Fig4(cfg Config) []Result {
	ms, ns, grid := landscape(cfg, true)
	out := landscapeResult("fig4", "Fig4: C2R performance landscape, measured on host [GB/s]", ms, ns, grid)
	out = append(out, modeledLandscape("fig4model",
		"Fig4 (model): C2R landscape on modeled K20c, paper's [1000,25000] grid [GB/s]", true))
	return out
}

// Fig5 sweeps the R2C algorithm over the same grid.
func Fig5(cfg Config) []Result {
	ms, ns, grid := landscape(cfg, false)
	out := landscapeResult("fig5", "Fig5: R2C performance landscape, measured on host [GB/s]", ms, ns, grid)
	out = append(out, modeledLandscape("fig5model",
		"Fig5 (model): R2C landscape on modeled K20c, paper's [1000,25000] grid [GB/s]", false))
	return out
}

func landscapeResult(name, title string, ms, ns []int, grid [][]float64) []Result {
	var rows [][]float64
	for i, m := range ms {
		for j, n := range ns {
			rows = append(rows, []float64{float64(m), float64(n), grid[i][j]})
		}
	}
	return []Result{{
		Name: name,
		Text: RenderHeatmap(title, ms, ns, grid),
		CSV:  CSV([]string{"m", "n", "gbps"}, rows),
	}}
}

// --- Figure 6 / Table 2: GPU-class contenders ---

func runGPU(cfg Config) (labels []string, samples [][]float64) {
	if e, ok := gpuMemo[cfg]; ok {
		return e.labels, e.samples
	}
	defer func() { gpuMemo[cfg] = memoEntry{labels, samples} }()
	w := GPUWorkload(cfg.Scale)
	rng := NewRNG(cfg.Seed + 6)
	workers := cfg.workers()
	labels = []string{"Sung-style (float)", "C2R (float)", "C2R (double)"}
	samples = make([][]float64, 3)
	for s := 0; s < w.Samples; s++ {
		m := w.Dim.Rand(rng)
		n := w.Dim.Rand(rng)

		f32 := gridBuf[uint32](m, n)
		FillSeq(f32)
		d := Time(func() { baseline.Sung32(f32, m, n, baseline.SungOpts{Workers: workers}) })
		samples[0] = append(samples[0], ThroughputGBps(m, n, 4, d))

		FillSeq(f32)
		d = Time(func() { mustTranspose(f32, m, n, inplace.Options{Workers: workers}) })
		samples[1] = append(samples[1], ThroughputGBps(m, n, 4, d))

		f64 := gridBuf[uint64](m, n)
		FillSeq(f64)
		d = Time(func() { mustTranspose(f64, m, n, inplace.Options{Workers: workers}) })
		samples[2] = append(samples[2], ThroughputGBps(m, n, 8, d))
	}
	return labels, samples
}

// Fig6 renders the histograms of the GPU-class comparison.
func Fig6(cfg Config) []Result {
	labels, samples := runGPU(cfg)
	text := ""
	for i, lab := range labels {
		_, max := MinMax(samples[i])
		text += RenderHistogram("Fig6: "+lab+" [GB/s]", samples[i], 0, max*1.05+1e-9, 20, 40) + "\n"
	}
	var csvRows [][]float64
	for i := range samples[0] {
		csvRows = append(csvRows, []float64{samples[0][i], samples[1][i], samples[2][i]})
	}
	return []Result{{Name: "fig6", Text: text, CSV: CSV(labels, csvRows)}}
}

// Table2 renders the median summary of the same workload.
func Table2(cfg Config) []Result {
	labels, samples := runGPU(cfg)
	rows := make([]Row, len(labels))
	var csvRows [][]float64
	for i, lab := range labels {
		rows[i] = Row{Label: lab, Value: Median(samples[i]), Unit: "GB/s"}
		csvRows = append(csvRows, []float64{float64(i), Median(samples[i])})
	}
	text := RenderTable("Table 2: median in-place transposition throughput (heuristic C2R/R2C)", rows)
	text += fmt.Sprintf("\nC2R (float) vs Sung-style speedup: %.2fx (paper: 14.23/5.33 = 2.7x)\n",
		rows[1].Value/rows[0].Value)
	text += modeledTable2(cfg)
	return []Result{{Name: "table2", Text: text, CSV: CSV([]string{"method", "median_gbps"}, csvRows)}}
}

// --- Figure 7: AoS -> SoA conversion throughput ---

// Fig7 measures the in-place Array-of-Structures to
// Structure-of-Arrays conversion over random structure sizes and counts.
func Fig7(cfg Config) []Result {
	samples, fieldsR, countR := AoSWorkload(cfg.Scale)
	rng := NewRNG(cfg.Seed + 7)
	var tps []float64
	var csvRows [][]float64
	for s := 0; s < samples; s++ {
		fields := fieldsR.Rand(rng)
		count := countR.Rand(rng)
		data := gridBuf[uint64](count, fields)
		FillSeq(data)
		var d time.Duration
		d = Time(func() {
			if err := inplace.AOSToSOA(data, count, fields, inplace.Options{Workers: cfg.workers()}); err != nil {
				panic(err)
			}
		})
		tp := ThroughputGBps(count, fields, 8, d)
		tps = append(tps, tp)
		csvRows = append(csvRows, []float64{float64(count), float64(fields), tp})
	}
	_, max := MinMax(tps)
	text := RenderHistogram("Fig7: AoS->SoA in-place conversion [GB/s]", tps, 0, max*1.05+1e-9, 20, 40)
	text += fmt.Sprintf("\nmedian %.3f GB/s, max %.3f GB/s (paper: median 34.3, max 51 on K20c)\n",
		Median(tps), Percentile(tps, 100))
	text += modeledFig7(cfg)
	return []Result{{Name: "fig7", Text: text, CSV: CSV([]string{"count", "fields", "gbps"}, csvRows)}}
}
