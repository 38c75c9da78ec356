package inplace

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"time"

	"inplace/internal/parallel"
	"inplace/internal/tune"
)

// This file is the public face of the autotuner (internal/tune): a
// process-wide wisdom table of measured-optimal execution strategies,
// populated by the tuners (Tune, TunePermute, TuneOOC, TuneStore) or
// loaded from disk with LoadWisdom, that the planners consult (per
// Options.Tuning) before falling back to the paper's static shape
// heuristics. The pattern is FFTW's wisdom: plan quality comes from
// measurement, persistence makes the measurement pay once per machine
// instead of once per process.

// wisdomTab is the process wisdom table. All access goes through the
// helpers below; the planner cache is flushed on every mutation so
// cached planners never outlive the wisdom that shaped them.
var wisdomTab = struct {
	mu sync.RWMutex
	t  *tune.Table
}{t: tune.NewTable()}

// wisdomKey completes k into the table key of one problem from what the
// caller configured: budget is the Workers option of a Transpose or
// Permute problem (0 = GOMAXPROCS) and the byte budget of an OOC
// problem, and a Store key arrives with its raw row count in Rows. The
// tuner that records a decision and every planner that consults one
// build their key here, so the two cannot resolve a budget differently.
func wisdomKey(k tune.Key, budget int64) tune.Key {
	switch k.Kind {
	case tune.KindTranspose, tune.KindPermute:
		k.Budget = parallel.Workers(int(budget))
	case tune.KindOOC:
		k.Budget = tune.Log2(budget)
	case tune.KindStore:
		k.Rows = tune.Log2(int64(k.Rows))
	}
	return k
}

// lookupWisdom returns the decision recorded for k as the tuning mode
// allows: none under WisdomOff, and ErrNoWisdom for a miss under
// WisdomRequired. Hits and misses allocate nothing.
func lookupWisdom(mode Tuning, k tune.Key) (tune.Decision, bool, error) {
	if mode == WisdomOff {
		return tune.Decision{}, false, nil
	}
	wisdomTab.mu.RLock()
	d, ok := wisdomTab.t.Lookup(k)
	wisdomTab.mu.RUnlock()
	if !ok && mode == WisdomRequired {
		return d, false, fmt.Errorf("%w (%v)", ErrNoWisdom, k)
	}
	return d, ok, nil
}

// storeWisdom records d under k. Cached planners were resolved against
// the old wisdom; they are rebuilt on next use.
func storeWisdom(k tune.Key, d tune.Decision) {
	wisdomTab.mu.Lock()
	wisdomTab.t.Store(k, d)
	wisdomTab.mu.Unlock()
	flushPlannerCache()
}

// applyWisdom fills every option the caller left at its zero value from
// a wisdom decision: its direction, worker count and tile width. A 2D
// decision's variant names the pipeline it was measured on, and the one
// engine runs every decision whatever it names. Explicit settings always
// win: wisdom refines the heuristics, it does not override the caller.
func applyWisdom(o Options, d tune.Decision) Options {
	if o.Direction == HeuristicDirection {
		if d.C2R {
			o.Direction = ForceC2R
		} else {
			o.Direction = ForceR2C
		}
	}
	if o.Workers == 0 {
		o.Workers = d.Workers
	}
	if o.BlockWidth == 0 {
		o.BlockWidth = d.BlockW
	}
	return o
}

// TuneConfig bounds a tuning run. Tune, TunePermute, TuneOOC and
// TuneStore all measure under it: each candidate is warmed once, then
// timed as the median of Reps samples within MaxCandidateTime.
type TuneConfig struct {
	// Workers is the worker budget the tuner may spend; 0 means
	// GOMAXPROCS. For Tune and TunePermute the budget becomes part of
	// the wisdom key: a decision tuned under budget 4 is only consulted
	// by plans resolving to a 4-worker budget.
	Workers int
	// Fast caps every measurement knob for smoke runs: single-sample
	// candidates with a microsecond-scale floor. Decisions are noisy;
	// use it to exercise the code path, not to tune production plans.
	Fast bool
	// Reps overrides the samples per candidate (median taken); 0 keeps
	// the default (5, or 1 when Fast).
	Reps int
	// MaxCandidateTime caps the measurement time of one candidate; 0
	// keeps the default (80ms, or 2ms when Fast).
	MaxCandidateTime time.Duration
}

// tuneConfig resolves a tuner's optional TuneConfig into the internal
// configuration all four tuners measure under.
func tuneConfig(cfgs []TuneConfig) tune.Config {
	var c TuneConfig
	if len(cfgs) > 0 {
		c = cfgs[0]
	}
	cfg := tune.Config{MaxWorkers: c.Workers}
	if c.Fast {
		cfg = tune.Smoke()
		cfg.MaxWorkers = c.Workers
	}
	if c.Reps > 0 {
		cfg.Reps = c.Reps
	}
	if c.MaxCandidateTime > 0 {
		cfg.MaxTotal = c.MaxCandidateTime
	}
	return cfg
}

// TuneResult reports the winning decision of one Tune call.
type TuneResult struct {
	Rows, Cols int
	ElemSize   int
	MaxWorkers int // resolved budget the decision is keyed under

	Direction  Direction
	Workers    int
	BlockWidth int
	GBps       float64 // throughput of the winning measurement
}

// String summarizes the result.
func (r TuneResult) String() string {
	dir := "R2C"
	if r.Direction == ForceC2R {
		dir = "C2R"
	}
	return fmt.Sprintf("tuned %dx%d (%dB, budget %d): %s workers=%d blockw=%d (%.2f GB/s)",
		r.Rows, r.Cols, r.ElemSize, r.MaxWorkers, dir, r.Workers, r.BlockWidth, r.GBps)
}

// Tune measures the real candidate space for transposing row-major
// rows×cols arrays of T — C2R vs. R2C direction, worker counts up to
// the budget, tile widths — with short repeatable runs and
// outlier-robust statistics, records
// the winner in the process wisdom table, and returns it. Subsequent
// planners for the shape (with Options.Tuning at WisdomAuto) use the
// measured decision; SaveWisdom persists it for future processes.
//
// Tuning a shape takes from milliseconds (Fast) to a few hundred
// milliseconds, and allocates a rows×cols scratch matrix for the
// duration of the call.
func Tune[T any](rows, cols int, cfgs ...TuneConfig) (TuneResult, error) {
	cfg := tuneConfig(cfgs)
	d, err := tune.TuneFor[T](rows, cols, cfg)
	if err != nil {
		return TuneResult{}, err
	}
	elemSize := int(reflect.TypeFor[T]().Size())
	k := wisdomKey(tune.Key{Kind: tune.KindTranspose, Rows: rows, Cols: cols, ElemSize: elemSize}, int64(cfg.MaxWorkers))
	storeWisdom(k, d)

	res := TuneResult{
		Rows: rows, Cols: cols, ElemSize: elemSize, MaxWorkers: k.Budget,
		Direction: ForceR2C, Workers: d.Workers, BlockWidth: d.BlockW, GBps: d.GBps,
	}
	if d.C2R {
		res.Direction = ForceC2R
	}
	return res, nil
}

// TuneElem is Tune for callers that know the element width in bytes but
// not the type — raw-buffer CLIs like cmd/xpose and cmd/xposetune.
// Supported widths are 1, 2, 4 and 8; wisdom recorded for a width is
// consulted by any element type of that size.
func TuneElem(rows, cols, elemSize int, cfgs ...TuneConfig) (TuneResult, error) {
	w, err := wordsOf(elemSize)
	if err != nil {
		return TuneResult{}, err
	}
	return w.tune(rows, cols, cfgs)
}

// LoadWisdom merges the wisdom file at path into the process table.
// Entries in the file win over entries already in the table (the file is
// assumed fresher). Corrupt files are rejected with an error satisfying
// errors.Is(err, tune.ErrCorrupt); files written by an unknown format
// version merge nothing and return nil, so version skew degrades to the
// static heuristics instead of failing.
//
// Wisdom is measurement: a table records what was fastest on the
// machine that ran the tuner, under that machine's core count and cache
// hierarchy. Loading another machine's wisdom is safe — every decision
// still computes a correct transposition — but its choices may be far
// from optimal there; re-tune per deployment target.
func LoadWisdom(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t, err := tune.Load(f)
	if err != nil {
		return fmt.Errorf("inplace: loading wisdom %s: %w", path, err)
	}
	wisdomTab.mu.Lock()
	wisdomTab.t.Merge(t)
	wisdomTab.mu.Unlock()
	flushPlannerCache()
	return nil
}

// SaveWisdom writes the process wisdom table to path as versioned JSON.
// The file round-trips: LoadWisdom of a SaveWisdom output reproduces the
// table exactly.
func SaveWisdom(path string) error {
	wisdomTab.mu.RLock()
	snapshot := wisdomTab.t.Clone()
	wisdomTab.mu.RUnlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snapshot.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("inplace: saving wisdom %s: %w", path, err)
	}
	return f.Close()
}

// WisdomLen returns the number of decisions of every kind — 2D,
// permutation, out-of-core and tile-store — in the process wisdom
// table.
func WisdomLen() int {
	wisdomTab.mu.RLock()
	defer wisdomTab.mu.RUnlock()
	return wisdomTab.t.Len()
}

// ClearWisdom empties the process wisdom table (and flushes the planner
// cache), restoring the pure static heuristics.
func ClearWisdom() {
	wisdomTab.mu.Lock()
	wisdomTab.t = tune.NewTable()
	wisdomTab.mu.Unlock()
	flushPlannerCache()
}
