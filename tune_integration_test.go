package inplace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"inplace"
	"inplace/internal/stats"
	"inplace/internal/tune"
)

// benchsuiteShapes mirrors the tiny-scale benchsuite workload: the
// Figure 4/5 landscape grid crossed with itself, plus skinny AoS-like
// shapes from the Figure 7 workload and the tuned experiment's set.
func benchsuiteShapes() [][2]int {
	grid := []int{16, 32, 64} // bench.LandscapeGrid(TinyScale)
	var shapes [][2]int
	for _, m := range grid {
		for _, n := range grid {
			shapes = append(shapes, [2]int{m, n})
		}
	}
	shapes = append(shapes, [2]int{512, 6}, [2]int{48, 48}, [2]int{32, 96}, [2]int{1000, 4})
	return shapes
}

// medianExecNs measures the steady-state Execute of one planner: the
// median over several samples, each batching enough runs to outlast
// timer granularity.
func medianExecNs(t *testing.T, pl *inplace.Planner[uint64], data []uint64) float64 {
	t.Helper()
	if err := pl.Execute(data); err != nil { // warm arena + cycles
		t.Fatal(err)
	}
	const itersPerSample, samples = 8, 9
	var xs []float64
	for s := 0; s < samples; s++ {
		start := time.Now()
		for i := 0; i < itersPerSample; i++ {
			if err := pl.Execute(data); err != nil {
				t.Fatal(err)
			}
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds())/itersPerSample)
	}
	return stats.Median(xs)
}

// TestTunedNeverMeasurablySlower is the tuner's contract: for every
// shape in the (tiny-scale) benchsuite workload, a planner resolved
// through warm wisdom must not select a variant measurably slower than
// the static heuristic's choice. "Measurably" leaves generous room for
// scheduling noise — the tuner seeds its search with the heuristic
// candidate, so a genuinely slower selection can only come from
// measurement error, and the margin below is far beyond what the
// median-of-samples measurement produces.
func TestTunedNeverMeasurablySlower(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	defer inplace.ClearWisdom()
	inplace.ClearWisdom()

	for _, sh := range benchsuiteShapes() {
		m, n := sh[0], sh[1]
		if _, err := inplace.Tune[uint64](m, n, inplace.TuneConfig{
			Workers: 1, Reps: 3, MaxCandidateTime: 10 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		tuned, err := inplace.NewPlanner[uint64](m, n, inplace.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		heur, err := inplace.NewPlanner[uint64](m, n, inplace.Options{Workers: 1, Tuning: inplace.WisdomOff})
		if err != nil {
			t.Fatal(err)
		}
		data := make([]uint64, m*n)
		for i := range data {
			data[i] = uint64(i)
		}
		tunedNs := medianExecNs(t, tuned, data)
		heurNs := medianExecNs(t, heur, data)
		// 1.5x plus an absolute floor for the tiniest shapes, where a
		// microsecond of jitter is a large relative error.
		if tunedNs > heurNs*1.5+50_000 {
			t.Errorf("%dx%d: tuned plan %v is measurably slower than heuristic %v (%.0fns vs %.0fns)",
				m, n, tuned.Plan(), heur.Plan(), tunedNs, heurNs)
		}
	}
}

// TestWisdomFileChangesPlannerSelection is the cmd/xposetune
// acceptance path: produce a wisdom file from a tuning run whose
// measurement disagrees with the static heuristic, prove the file
// round-trips, and prove that loading it changes the planner's direction
// for that shape — while still transposing correctly.
//
// Measurement is injected (tune.Config.Cost) so the disagreement is
// deterministic on any host; the file format and planner plumbing under
// test are exactly what the CLI drives.
func TestWisdomFileChangesPlannerSelection(t *testing.T) {
	defer inplace.ClearWisdom()
	inplace.ClearWisdom()
	const rows, cols = 120, 96

	// The heuristic picks R2C for this shape (rows > cols); force the
	// measurement to crown C2R instead.
	d, err := tune.TuneFor[uint64](rows, cols, tune.Config{
		MaxWorkers: 1,
		Cost: func(c tune.Candidate) float64 {
			if c.C2R {
				return 1
			}
			return 1000
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Variant != "cache-aware" || !d.C2R {
		t.Fatalf("cost injection failed: decision %+v", d)
	}

	// Write the wisdom file the way xposetune does and check it
	// round-trips exactly.
	tbl := tune.NewTable()
	tbl.Store(tune.Key{Kind: tune.KindTranspose, Rows: rows, Cols: cols, ElemSize: 8, Budget: 1}, d)
	var buf bytes.Buffer
	if err := tbl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := tune.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Equal(reloaded) {
		t.Fatal("wisdom file did not round-trip")
	}
	path := filepath.Join(t.TempDir(), "wisdom.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Baseline: the heuristic's selection.
	before, err := inplace.NewPlanner[uint64](rows, cols, inplace.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if before.Plan().UsesC2R() {
		t.Fatalf("unexpected heuristic baseline %v", before.Plan())
	}

	// Loading the wisdom demonstrably changes the selection.
	if err := inplace.LoadWisdom(path); err != nil {
		t.Fatal(err)
	}
	after, err := inplace.NewPlanner[uint64](rows, cols, inplace.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !after.Plan().UsesC2R() {
		t.Fatalf("wisdom did not change selection: %v", after.Plan())
	}

	// And the changed plan still computes the right answer.
	data := make([]uint64, rows*cols)
	for i := range data {
		data[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	want := transposeRef(data, rows, cols)
	if err := after.Execute(data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("wisdom-selected plan transposed incorrectly at %d", i)
		}
	}
}
