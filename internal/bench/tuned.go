package bench

import (
	"fmt"
	"strings"

	"inplace"
)

func init() {
	Register(Experiment{
		ID: "tuned", Title: "measured (wisdom) vs heuristic plan selection",
		Axes: []string{"m", "n"}, Unit: "GB/s", Series: []string{"tuned"},
		Run: Tuned,
	})
}

// tunedShapes returns the shape set the tuned experiment races: a mix
// of near-square (direction/variant crossover territory), skinny AoS
// (cycle-following territory) and wide shapes, scaled to the workload
// preset.
func tunedShapes(s Scale) [][2]int {
	switch s {
	case TinyScale:
		return [][2]int{{48, 48}, {512, 6}, {32, 96}}
	case LargeScale:
		return [][2]int{{3000, 3000}, {4_000_000, 8}, {512, 8192}, {2048, 96}}
	case PaperScale:
		return [][2]int{{5000, 5000}, {10_000_000, 8}, {1000, 25000}, {4096, 96}}
	default:
		return [][2]int{{768, 768}, {400_000, 8}, {256, 2048}, {1024, 48}}
	}
}

// Tuned races the static heuristic against the autotuner's measured
// decision, per shape: the wisdom-vs-heuristic comparison the paper's
// per-shape performance landscapes (Figures 4–5) motivate. With
// cfg.Tune set the experiment tunes in-process (`benchorch exp -tune`);
// otherwise it uses whatever wisdom the process has already loaded, and
// shapes without wisdom simply report 1.0x.
func Tuned(cfg Config) []Result {
	const reps = 5
	var b strings.Builder
	var csvRows [][]float64
	fmt.Fprintf(&b, "Tuned: measured (wisdom) vs heuristic plan selection, %d reps median\n", reps)
	for _, sh := range tunedShapes(cfg.Scale) {
		m, n := sh[0], sh[1]
		if cfg.Tune {
			tc := inplace.TuneConfig{Workers: cfg.Workers, Fast: cfg.Scale == TinyScale}
			if _, err := inplace.TuneElem(m, n, 8, tc); err != nil {
				panic(err)
			}
		}
		data := gridBuf[uint64](m, n)
		FillSeq(data)

		measure := func(o inplace.Options) float64 {
			pl, err := inplace.NewPlanner[uint64](m, n, o)
			if err != nil {
				panic(err)
			}
			if err := pl.Execute(data); err != nil { // warm arena + cycles
				panic(err)
			}
			var tps []float64
			for r := 0; r < reps; r++ {
				d := Time(func() {
					if err := pl.Execute(data); err != nil {
						panic(err)
					}
				})
				tps = append(tps, ThroughputGBps(m, n, 8, d))
			}
			return Median(tps)
		}

		heur := measure(inplace.Options{Workers: cfg.Workers, Tuning: inplace.WisdomOff})
		tuned := measure(inplace.Options{Workers: cfg.Workers})
		pl, err := inplace.NewPlanner[uint64](m, n, inplace.Options{Workers: cfg.Workers})
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "%10dx%-8d heuristic %8.2f GB/s   tuned %8.2f GB/s  (%.2fx)  -> %s\n",
			m, n, heur, tuned, tuned/heur, pl.String())
		csvRows = append(csvRows, []float64{float64(m), float64(n), heur, tuned})
	}
	return []Result{{
		Name: "tuned",
		Text: b.String(),
		CSV:  CSV([]string{"m", "n", "heuristic_gbps", "tuned_gbps"}, csvRows),
	}}
}
