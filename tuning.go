package inplace

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"time"

	"inplace/internal/core"
	"inplace/internal/parallel"
	"inplace/internal/tune"
)

// This file is the public face of the autotuner (internal/tune): a
// process-wide wisdom table of measured-optimal execution strategies,
// populated by Tune or loaded from disk with LoadWisdom, that the
// planner consults (per Options.Tuning) before falling back to the
// paper's static shape heuristics. The pattern is FFTW's wisdom: plan
// quality comes from measurement, persistence makes the measurement pay
// once per machine instead of once per process.

// wisdomTab is the process wisdom table. All access goes through the
// helpers below; the planner cache is flushed on every mutation so
// cached planners never outlive the wisdom that shaped them.
var wisdomTab = struct {
	mu sync.RWMutex
	t  *tune.Table
}{t: tune.NewTable()}

// lookupWisdom returns the recorded decision for an order-normalized
// rows×cols shape with the given element size under the worker budget
// that workersOpt resolves to.
func lookupWisdom(rows, cols, elemSize, workersOpt int) (tune.Decision, bool) {
	k := tune.Key{Rows: rows, Cols: cols, ElemSize: elemSize, MaxWorkers: parallel.Workers(workersOpt)}
	wisdomTab.mu.RLock()
	defer wisdomTab.mu.RUnlock()
	return wisdomTab.t.Lookup(k)
}

// applyWisdom fills every option the caller left at its zero value from
// a wisdom decision. Explicit settings always win: wisdom refines the
// heuristics, it does not override the caller.
func applyWisdom(o Options, d tune.Decision) Options {
	if o.Method == Auto {
		if v, ok := d.CoreVariant(); ok {
			o.Method = methodForVariant(v)
		}
	}
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

// TuneConfig bounds a Tune call.
type TuneConfig struct {
	// Workers is the worker budget the tuner may spend; 0 means
	// GOMAXPROCS. The budget becomes part of the wisdom key: a decision
	// tuned under budget 4 is only consulted by plans resolving to a
	// 4-worker budget.
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

func (c TuneConfig) internal() tune.Config {
	cfg := tune.Config{MaxWorkers: c.Workers}
	if c.Fast {
		cfg = tune.Smoke()
		cfg.MaxWorkers = c.Workers
	}
	if c.Reps > 0 {
		cfg.Reps = c.Reps
	}
	if c.MaxCandidateTime > 0 {
		cfg.MaxCandidate = c.MaxCandidateTime
	}
	return cfg
}

// TuneResult reports the winning decision of one Tune call.
type TuneResult struct {
	Rows, Cols int
	ElemSize   int
	MaxWorkers int // resolved budget the decision is keyed under

	Method     Method
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
	return fmt.Sprintf("tuned %dx%d (%dB, budget %d): %v %s workers=%d blockw=%d (%.2f GB/s)",
		r.Rows, r.Cols, r.ElemSize, r.MaxWorkers, r.Method, dir, r.Workers, r.BlockWidth, r.GBps)
}

// Tune measures the real candidate space for transposing row-major
// rows×cols arrays of T — pass pipeline (Algorithm1 scatter, gather,
// cache-aware) vs. the skinny banded specialization, C2R vs. R2C
// direction, worker counts up to the budget, cache-aware tile widths
// — with short repeatable runs and outlier-robust statistics, records
// the winner in the process wisdom table, and returns it. Subsequent
// planners for the shape (with Options.Tuning at WisdomAuto) use the
// measured decision; SaveWisdom persists it for future processes.
//
// Tuning a shape takes from milliseconds (Fast) to a few hundred
// milliseconds, and allocates a rows×cols scratch matrix for the
// duration of the call.
func Tune[T any](rows, cols int, cfgs ...TuneConfig) (TuneResult, error) {
	c := TuneConfig{}
	if len(cfgs) > 0 {
		c = cfgs[0]
	}
	d, err := tune.TuneFor[T](rows, cols, c.internal())
	if err != nil {
		return TuneResult{}, err
	}
	elemSize := int(reflect.TypeFor[T]().Size())
	k := tune.Key{Rows: rows, Cols: cols, ElemSize: elemSize, MaxWorkers: parallel.Workers(c.Workers)}
	storeWisdom(k, d)

	v, _ := d.CoreVariant()
	res := TuneResult{
		Rows: rows, Cols: cols, ElemSize: elemSize, MaxWorkers: k.MaxWorkers,
		Method: methodForVariant(v), Direction: ForceR2C,
		Workers: d.Workers, BlockWidth: d.BlockW, GBps: d.GBps,
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
	switch elemSize {
	case 1:
		return Tune[uint8](rows, cols, cfgs...)
	case 2:
		return Tune[uint16](rows, cols, cfgs...)
	case 4:
		return Tune[uint32](rows, cols, cfgs...)
	case 8:
		return Tune[uint64](rows, cols, cfgs...)
	default:
		return TuneResult{}, fmt.Errorf("%w: %d (want 1, 2, 4 or 8)", ErrElemSize, elemSize)
	}
}

func storeWisdom(k tune.Key, d tune.Decision) {
	wisdomTab.mu.Lock()
	wisdomTab.t.Store(k, d)
	wisdomTab.mu.Unlock()
	// Cached planners for this shape were resolved against the old
	// wisdom; rebuild on next use.
	flushPlannerCache()
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

// WisdomLen returns the number of decisions in the process wisdom table.
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

// methodForVariant maps an engine variant back to its public Method.
func methodForVariant(v core.Variant) Method {
	switch v {
	case core.Scatter:
		return Algorithm1
	case core.Gather:
		return GatherOnly
	case core.Skinny:
		return SkinnyMethod
	default:
		return CacheAware
	}
}
