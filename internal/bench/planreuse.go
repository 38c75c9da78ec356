package bench

import (
	"fmt"

	"inplace"
)

func init() {
	Register(Experiment{
		ID: "planreuse", Title: "warm vs cold Planner throughput over the AoS workload",
		Axes: []string{"count", "fields"}, Unit: "GB/s", Series: []string{"planreuse"},
		Run: PlanReuse,
	})
}

// PlanReuse measures the Planner API's amortization claim over the
// AoS-like workload where planning cost matters most: for each sampled
// shape, the same transpose runs cold (a fresh Planner per call, putting
// the schedule and engine construction and the scratch allocation on
// the critical path) and warm (one prebuilt Planner executed
// repeatedly, which after warm-up allocates nothing). Reported is the
// per-shape throughput pair and the distribution of warm/cold speedups.
func PlanReuse(cfg Config) []Result {
	samples, fieldsR, countR := AoSWorkload(cfg.Scale)
	rng := NewRNG(cfg.Seed + 11)
	o := inplace.Options{Workers: cfg.Workers, Direction: inplace.ForceC2R}
	var speedups []float64
	var csvRows [][]float64
	for s := 0; s < samples; s++ {
		fields := fieldsR.Rand(rng)
		count := countR.Rand(rng)
		data := gridBuf[uint64](count, fields)
		FillSeq(data)

		dCold := Time(func() {
			pl, err := inplace.NewPlanner[uint64](count, fields, o)
			if err != nil {
				panic(err)
			}
			if err := pl.Execute(data); err != nil {
				panic(err)
			}
		})

		pl, err := inplace.NewPlanner[uint64](count, fields, o)
		if err != nil {
			panic(err)
		}
		if err := pl.Execute(data); err != nil { // warm the arena
			panic(err)
		}
		dWarm := Time(func() {
			if err := pl.Execute(data); err != nil {
				panic(err)
			}
		})

		cold := ThroughputGBps(count, fields, 8, dCold)
		warm := ThroughputGBps(count, fields, 8, dWarm)
		speedups = append(speedups, warm/cold)
		csvRows = append(csvRows, []float64{float64(count), float64(fields), cold, warm})
	}
	_, max := MinMax(speedups)
	text := RenderHistogram("PlanReuse: warm/cold Planner speedup [x]", speedups, 0, max*1.05+1e-9, 20, 40)
	text += fmt.Sprintf("\nmedian warm/cold speedup: %.2fx over %d AoS-like shapes\n",
		Median(speedups), samples)
	return []Result{{
		Name: "planreuse",
		Text: text,
		CSV:  CSV([]string{"count", "fields", "cold_gbps", "warm_gbps"}, csvRows),
	}}
}
