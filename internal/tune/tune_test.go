package tune

import (
	"testing"
)

// costPreferring returns a deterministic cost function that makes
// exactly the candidates matching pred cheapest.
func costPreferring(pred func(Candidate) bool) func(Candidate) float64 {
	return func(c Candidate) float64 {
		if pred(c) {
			return 1
		}
		return 1000
	}
}

func TestTuneForFollowsMeasurement(t *testing.T) {
	// 120x96 is square-ish and non-coprime: both directions are live
	// candidates. Force the measurement to prefer the direction the
	// static heuristic (R2C, since rows > cols) would never pick.
	cfg := Config{
		MaxWorkers: 1,
		Cost:       costPreferring(func(c Candidate) bool { return c.C2R }),
	}
	d, err := TuneFor[uint64](120, 96, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Variant != "cache-aware" || !d.C2R {
		t.Fatalf("tuner ignored measurement: got %+v, want C2R cache-aware", d)
	}
}

func TestTuneForWorkerLadder(t *testing.T) {
	cfg := Config{
		MaxWorkers: 8,
		Cost: func(c Candidate) float64 {
			// Cheapest at exactly 2 workers, otherwise proportional to the
			// distance — the staged sweep must land on 2.
			if c.Workers == 2 {
				return 1
			}
			return 10 + float64(c.Workers)
		},
	}
	d, err := TuneFor[uint64](256, 256, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Workers != 2 {
		t.Fatalf("worker sweep picked %d workers, want 2 (%+v)", d.Workers, d)
	}
}

// The default stage-3 sweep times the derived width W of the winning
// direction's plan (as 0) and its neighbours W/2 and 2W, clamped to
// [1, n], and keeps whichever measures cheapest.
func TestTuneForBlockWidthSweep(t *testing.T) {
	for _, c := range []struct {
		rows, cols, pick int
		swept            []int
	}{
		{256, 256, 128, []int{0, 32, 128}},   // a square: swap tile B 64
		{2896, 2896, 32, []int{0, 32, 128}},  // a square: swap tile B 64
		{48, 48, 24, []int{0, 24}},           // a square: B clamped to n 48, 2B too
		{3000, 2797, 16, []int{0, 16, 64}},   // R2C wins: plan 2797×3000, W 32
		{4, 1 << 20, 0, []int{0, 256, 1024}}, // W 512: a 16 KiB tile
		{4, 10, 10, []int{0, 4, 10}},         // W 8: 2W clamped to n
	} {
		swept := map[int]bool{}
		cfg := Config{MaxWorkers: 1, Cost: func(cd Candidate) float64 {
			swept[cd.BlockW] = true
			if cd.BlockW == c.pick {
				return 1
			}
			return 10
		}}
		d, err := TuneFor[uint64](c.rows, c.cols, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d.Variant != "cache-aware" || d.BlockW != c.pick {
			t.Errorf("%dx%d: block sweep got %+v, want cache-aware blockw=%d", c.rows, c.cols, d, c.pick)
		}
		if len(swept) != len(c.swept) {
			t.Errorf("%dx%d: swept %v, want %v", c.rows, c.cols, swept, c.swept)
		}
		for _, bw := range c.swept {
			if !swept[bw] {
				t.Errorf("%dx%d: swept %v, want %v", c.rows, c.cols, swept, c.swept)
			}
		}
	}
}

// Stage 1 races both directions, except on a square, whose C2R and R2C
// run the same swap sweep: every candidate a square times keeps the
// heuristic's direction, and a rectangle times both.
func TestTuneForSquareTimesOneDirection(t *testing.T) {
	for _, c := range []struct {
		rows, cols int
		dirs       int
	}{
		{256, 256, 1},
		{2896, 2896, 1},
		{1, 1, 1},
		{256, 192, 2},
		{192, 256, 2},
	} {
		timed := map[bool]int{}
		cfg := Config{MaxWorkers: 2, Cost: func(cd Candidate) float64 {
			timed[cd.C2R]++
			return 1
		}}
		d, err := TuneFor[uint64](c.rows, c.cols, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(timed) != c.dirs {
			t.Errorf("%dx%d: timed %d directions (C2R %d, R2C %d candidates), want %d",
				c.rows, c.cols, len(timed), timed[true], timed[false], c.dirs)
		}
		if h := HeuristicCandidate(c.rows, c.cols, 2); timed[h.C2R] == 0 || d.C2R != h.C2R {
			t.Errorf("%dx%d: decision %+v, timed %v: want the heuristic direction C2R=%v", c.rows, c.cols, d, timed, h.C2R)
		}
	}
}

func TestTuneForRealMeasurementSmoke(t *testing.T) {
	// An actual wall-clock run at smoke settings: the decision must be
	// structurally valid whatever the host timing says.
	d, err := TuneFor[uint64](96, 64, Smoke())
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(Key{Kind: KindTranspose, Rows: 96, Cols: 64, ElemSize: 8, Budget: 1}, d); err != nil {
		t.Fatalf("smoke decision invalid: %v (%+v)", err, d)
	}
	if d.GBps <= 0 {
		t.Fatalf("smoke decision has no throughput: %+v", d)
	}
}

func TestTuneForRejectsBadShape(t *testing.T) {
	if _, err := TuneFor[uint64](0, 8, Config{}); err == nil {
		t.Error("TuneFor(0, 8) must fail")
	}
	if _, err := TuneFor[uint64](8, -1, Config{}); err == nil {
		t.Error("TuneFor(8, -1) must fail")
	}
}

func TestHeuristicCandidateMirrorsPlanner(t *testing.T) {
	// rows <= cols → C2R, otherwise R2C, on the full budget.
	c := HeuristicCandidate(100, 200, 1)
	if !c.C2R || c.Workers != 1 || c.BlockW != 0 {
		t.Fatalf("HeuristicCandidate(100, 200) = %+v, want C2R on 1 worker", c)
	}
	c = HeuristicCandidate(200, 100, 1)
	if c.C2R {
		t.Fatalf("HeuristicCandidate(200, 100) = %+v, want R2C", c)
	}
}
