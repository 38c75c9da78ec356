package tune

import (
	"testing"

	"inplace/internal/core"
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
	// 120x96 is square-ish and non-coprime: all four variants and both
	// directions are live candidates. Force the measurement to prefer a
	// choice the static heuristic (C2R cache-aware) would never make.
	cfg := Config{
		MaxWorkers: 1,
		Cost: costPreferring(func(c Candidate) bool {
			return !c.C2R && c.Variant == core.Scatter
		}),
	}
	d, err := TuneFor[uint64](120, 96, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Variant != "scatter" || d.C2R {
		t.Fatalf("tuner ignored measurement: got %+v, want R2C scatter", d)
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
			if c.Variant != core.CacheAware {
				return 1000
			}
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

func TestTuneForSkinnyGatedByViability(t *testing.T) {
	// A square shape is never skinny-viable; even a cost function that
	// would make skinny free must not select it, because the engine
	// would silently run cache-aware instead.
	cfg := Config{
		MaxWorkers: 1,
		Cost:       costPreferring(func(c Candidate) bool { return c.Variant == core.Skinny }),
	}
	d, err := TuneFor[uint64](128, 128, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Variant == "skinny" {
		t.Fatalf("tuner selected skinny for a non-skinny shape: %+v", d)
	}

	// A genuinely skinny shape keeps it in the candidate set.
	d, err = TuneFor[uint64](4096, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Variant != "skinny" {
		t.Fatalf("tuner dropped skinny for a skinny shape: %+v", d)
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
	// rows <= cols → C2R, otherwise R2C; always cache-aware.
	c := HeuristicCandidate(100, 200, 1)
	if !c.C2R || c.Variant != core.CacheAware {
		t.Fatalf("HeuristicCandidate(100, 200) = %+v, want C2R cache-aware", c)
	}
	c = HeuristicCandidate(200, 100, 1)
	if c.C2R {
		t.Fatalf("HeuristicCandidate(200, 100) = %+v, want R2C", c)
	}
}
