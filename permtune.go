package inplace

import (
	"fmt"
	"reflect"

	"inplace/internal/tensor"
	"inplace/internal/tune"
)

// Autotuning for PermuteAxes: TunePermute measures the planner's
// strategy candidates (both factorizations, plus the cycle fallback on
// small tensors) across the worker budget and records the winner in the
// wisdom table keyed by the canonical (dims, perm) form, so every raw
// shape that reduces to the same passes shares the entry.

// PermuteTuneResult reports the winning decision of one TunePermute
// call. Dims and Perm are the canonical forms the decision is keyed
// under, which may have lower rank than the tuned shape.
type PermuteTuneResult struct {
	Dims       string
	Perm       string
	ElemSize   int
	MaxWorkers int // resolved budget the decision is keyed under

	Strategy string
	Workers  int
	GBps     float64
}

// String summarizes the result.
func (r PermuteTuneResult) String() string {
	return fmt.Sprintf("tuned %s perm %s (%dB, budget %d): %s workers=%d (%.2f GB/s)",
		r.Dims, r.Perm, r.ElemSize, r.MaxWorkers, r.Strategy, r.Workers, r.GBps)
}

// cycleTuneMaxBytes bounds the tensors the tuner will measure the cycle
// strategy on: its O(n·L) index walk is only ever competitive on small
// tensors, and measuring it on large ones would dominate the tuning
// budget for no information.
const cycleTuneMaxBytes = 1 << 21

// TunePermute measures the real strategy space for permuting the axes
// of row-major dims tensors of T with perm — greedy vs. inverse
// factorization, worker counts at 1 and the budget, plus the
// cycle-leader fallback on small tensors — records the winner in the
// process wisdom table, and returns it. Subsequent permutation planners
// for any shape with the same canonical form (with Options.Tuning at
// WisdomAuto) use the measured decision; SaveWisdom persists it for
// future processes.
func TunePermute[T any](dims, perm []int, cfgs ...TuneConfig) (PermuteTuneResult, error) {
	cfg := tuneConfig(cfgs)
	elemSize := int(reflect.TypeFor[T]().Size())

	// Validate and canonicalize once; an identity permutation has nothing
	// to measure.
	probe, err := planPermute(dims, perm, Options{Tuning: WisdomOff}, elemSize, "")
	if err != nil {
		return PermuteTuneResult{}, err
	}
	if probe.Strategy() == permStrategyNoop {
		return PermuteTuneResult{}, fmt.Errorf("%w (identity permutation)", ErrNoTuneResult)
	}
	k := wisdomKey(tune.Key{Kind: tune.KindPermute, Dims: probe.canonDims, Perm: probe.canonPerm, ElemSize: elemSize}, int64(cfg.MaxWorkers))

	data := make([]T, probe.size)
	s := tune.Search[tune.Decision]{Opts: cfg.MeasureOpts, Run: func(d tune.Decision) (func() error, error) {
		pp, err := planPermute(dims, perm, Options{Workers: d.Workers, Tuning: WisdomOff}, elemSize, d.Variant)
		if err != nil {
			return nil, err
		}
		pl := newPermutePlanner[T](pp)
		// Permutations are data-independent, so timing does not care
		// that successive runs keep permuting the buffer.
		return func() error { return pl.Execute(data) }, nil
	}}
	for _, strategy := range []string{tensor.StrategyGreedy, tensor.StrategyInverse} {
		s.Try(tune.Decision{Variant: strategy, Workers: 1})
		s.Try(tune.Decision{Variant: strategy, Workers: k.Budget})
	}
	if probe.size*elemSize <= cycleTuneMaxBytes {
		// The cycle walk is inherently sequential.
		s.Try(tune.Decision{Variant: tensor.StrategyCycle, Workers: 1})
	}
	best, ns, err := s.Best()
	if err != nil {
		return PermuteTuneResult{}, err
	}
	// One pass reads and writes the tensor once; ns/op and GB/s share
	// the 1e9 factor (the 2D tuner's convention).
	best.GBps = 2 * float64(probe.size) * float64(elemSize) / ns
	storeWisdom(k, best)
	return PermuteTuneResult{
		Dims: k.Dims, Perm: k.Perm, ElemSize: elemSize, MaxWorkers: k.Budget,
		Strategy: best.Variant, Workers: best.Workers, GBps: best.GBps,
	}, nil
}

// TunePermuteElem is TunePermute for callers that know the element width
// in bytes but not the type — raw-buffer CLIs like `xpose tune`.
// Supported widths are 1, 2, 4 and 8.
func TunePermuteElem(dims, perm []int, elemSize int, cfgs ...TuneConfig) (PermuteTuneResult, error) {
	w, err := wordsOf(elemSize)
	if err != nil {
		return PermuteTuneResult{}, err
	}
	return w.tunePermute(dims, perm, cfgs)
}
