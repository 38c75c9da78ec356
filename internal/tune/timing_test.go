package tune

import (
	"errors"
	"testing"
	"time"
)

func TestMeasureOptsDefaults(t *testing.T) {
	o := MeasureOpts{}.withDefaults()
	if o.Reps != 5 || o.MinSample != time.Millisecond || o.MaxTotal != 80*time.Millisecond {
		t.Fatalf("zero-value defaults wrong: %+v", o)
	}
	// Explicit values pass through untouched.
	o = MeasureOpts{Reps: 3, MinSample: time.Microsecond, MaxTotal: time.Second}.withDefaults()
	if o.Reps != 3 || o.MinSample != time.Microsecond || o.MaxTotal != time.Second {
		t.Fatalf("explicit opts rewritten: %+v", o)
	}
}

func TestMeasureSampleCountAndPositivity(t *testing.T) {
	calls := 0
	run := func() { calls++; time.Sleep(50 * time.Microsecond) }
	samples := Measure(run, MeasureOpts{Reps: 4, MinSample: 100 * time.Microsecond, MaxTotal: time.Second})
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4", len(samples))
	}
	for i, s := range samples {
		if s <= 0 {
			t.Fatalf("sample %d not positive: %v", i, s)
		}
	}
	if calls < 4 {
		t.Fatalf("run called only %d times", calls)
	}
}

// A MaxTotal shorter than the work still yields at least one sample —
// the gate can always form a verdict.
func TestMeasureBudgetCapStillSamples(t *testing.T) {
	run := func() { time.Sleep(2 * time.Millisecond) }
	samples := Measure(run, MeasureOpts{Reps: 50, MinSample: time.Microsecond, MaxTotal: 5 * time.Millisecond})
	if len(samples) == 0 {
		t.Fatal("no samples under a tight budget")
	}
	if len(samples) >= 50 {
		t.Fatalf("budget cap ignored: %d samples", len(samples))
	}
}

// Batch calibration amortizes sub-granularity work: per-call samples of
// a trivial function must come out far below MinSample, proving the
// batching divided by iters.
func TestMeasureCalibratesBatches(t *testing.T) {
	x := 0
	run := func() { x++ }
	samples := Measure(run, MeasureOpts{Reps: 3, MinSample: time.Millisecond, MaxTotal: 100 * time.Millisecond})
	for _, s := range samples {
		if s > float64(100*time.Microsecond) {
			t.Fatalf("per-call sample %vns way above a trivial call; batching broken", s)
		}
	}
}

// Search builds and measures each candidate once however often it is
// tried, keeps the cheapest by median (the first on ties), and stops at
// the first failing candidate.
func TestSearch(t *testing.T) {
	built := map[int]int{}
	s := Search[int]{
		Opts: MeasureOpts{Reps: 3, MinSample: time.Microsecond, MaxTotal: time.Second},
		Run: func(c int) (func() error, error) {
			built[c]++
			return func() error { time.Sleep(time.Duration(c) * time.Millisecond); return nil }, nil
		},
	}
	for _, c := range []int{5, 1, 3, 1, 5} {
		s.Try(c)
	}
	best, ns, err := s.Best()
	if err != nil || best != 1 || ns < float64(time.Millisecond) {
		t.Fatalf("Best() = %d, %vns, %v; want candidate 1 at >= 1ms", best, ns, err)
	}
	for c, n := range built {
		if n != 1 {
			t.Errorf("candidate %d built %d times, want once", c, n)
		}
	}

	boom := errors.New("boom")
	s.Run = func(c int) (func() error, error) {
		built[c]++
		return func() error { return boom }, nil
	}
	s.Try(2)
	s.Try(0)
	if _, _, err := s.Best(); !errors.Is(err, boom) || built[0] != 0 {
		t.Fatalf("a failing candidate must stop the search: err = %v", err)
	}

	tie := Search[int]{Cost: func(int) float64 { return 1 }}
	tie.Try(7)
	tie.Try(8)
	if best, _, _ := tie.Best(); best != 7 {
		t.Fatalf("tie kept candidate %d, want the first tried (7)", best)
	}
}
