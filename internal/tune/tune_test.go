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

func TestTuneForBlockWidthSweep(t *testing.T) {
	cfg := Config{
		MaxWorkers: 1,
		Cost: func(c Candidate) float64 {
			if c.BlockW == 16 {
				return 1
			}
			return 10
		},
	}
	d, err := TuneFor[uint64](256, 256, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Variant != "cache-aware" || d.BlockW != 16 {
		t.Fatalf("block sweep got %+v, want cache-aware blockw=16", d)
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
