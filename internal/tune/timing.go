package tune

import (
	"time"

	"inplace/internal/stats"
)

// The tuner's robust wall-clock measurement loop, exported so other
// harnesses (cmd/benchorch's orchestrator runs in particular) measure
// with the same discipline the autotuner trusts its decisions to:
// batch until a sample is long enough for the timer, repeat for a
// bounded number of samples under a total budget, and let the caller
// summarize with the robust statistics of internal/stats.

// MeasureOpts bounds one robust measurement. The zero value gets the
// tuner's defaults.
type MeasureOpts struct {
	// Reps is the target number of samples; 0 means 5.
	Reps int
	// MinSample is the minimum wall time of one sample: run is batched
	// until a sample takes at least this long, so timer granularity and
	// per-call jitter amortize away. 0 means 1ms.
	MinSample time.Duration
	// MaxTotal caps the total measurement time; remaining reps are
	// dropped once it is exceeded. 0 means 80ms.
	MaxTotal time.Duration
}

func (o MeasureOpts) withDefaults() MeasureOpts {
	if o.Reps <= 0 {
		o.Reps = 5
	}
	if o.MinSample <= 0 {
		o.MinSample = time.Millisecond
	}
	if o.MaxTotal <= 0 {
		o.MaxTotal = 80 * time.Millisecond
	}
	return o
}

// Measure times run and returns per-call nanosecond samples, at least
// one and at most o.Reps. The caller is expected to have warmed run
// (first-call effects like lazy plan decomposition belong outside the
// measured region) and to reduce the samples robustly — the tuner takes
// stats.Median, the bench orchestrator keeps the whole set.
func Measure(run func(), o MeasureOpts) []float64 {
	o = o.withDefaults()
	start := time.Now()
	// Calibrate the per-sample batch size against MinSample.
	iters := 1
	d := TimeRuns(run, 1)
	for d < o.MinSample && iters < 1<<20 {
		iters *= 2
		d = TimeRuns(run, iters)
	}
	samples := []float64{float64(d.Nanoseconds()) / float64(iters)}
	for len(samples) < o.Reps && time.Since(start) < o.MaxTotal {
		d = TimeRuns(run, iters)
		samples = append(samples, float64(d.Nanoseconds())/float64(iters))
	}
	return samples
}

// TimeRuns returns the wall time of iters back-to-back calls of run.
func TimeRuns(run func(), iters int) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		run()
	}
	return time.Since(start)
}

// Search is the measurement loop every tuner runs over its candidates
// C. Try builds a candidate's run once, warms it with one call, times
// it with Measure and costs it by the median sample. Costs are
// memoized, so a staged search that revisits a point never measures it
// twice. The cheapest candidate wins; ties keep the one tried first, so
// a tuner that tries the static heuristic first never records a choice
// that did not measure better than it.
type Search[C comparable] struct {
	Opts MeasureOpts
	// Run builds the run of one candidate. Runs must be repeatable on the
	// same buffers: they are timed back to back.
	Run func(C) (func() error, error)
	// Cost, when non-nil, replaces measurement with a deterministic
	// estimate in ns per run. Tests use it to force decisions (for
	// example, a shape where measurement and heuristic disagree) without
	// depending on host timing.
	Cost func(C) float64

	costs  map[C]float64
	best   C
	bestNs float64
	err    error
}

// Try measures c, unless it was measured before or an earlier
// candidate failed.
func (s *Search[C]) Try(c C) {
	if _, ok := s.costs[c]; ok || s.err != nil {
		return
	}
	ns, err := s.cost(c)
	if err != nil {
		s.err = err
		return
	}
	if s.costs == nil {
		s.costs = make(map[C]float64)
	}
	s.costs[c] = ns
	if len(s.costs) == 1 || ns < s.bestNs {
		s.best, s.bestNs = c, ns
	}
}

func (s *Search[C]) cost(c C) (float64, error) {
	if s.Cost != nil {
		return s.Cost(c), nil
	}
	run, err := s.Run(c)
	if err == nil {
		err = run() // warm scratch arenas and lazy plan state
	}
	if err != nil {
		return 0, err
	}
	samples := Measure(func() {
		if err == nil {
			err = run()
		}
	}, s.Opts)
	return stats.Median(samples), err
}

// Best returns the cheapest candidate so far with its cost in ns per
// run (0 before any candidate was measured), or the first error any
// candidate returned.
func (s *Search[C]) Best() (C, float64, error) { return s.best, s.bestNs, s.err }
