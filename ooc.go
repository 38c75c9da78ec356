package inplace

import (
	"fmt"
	"io"
	"os"

	"inplace/internal/mathutil"
	"inplace/internal/ooc"
	"inplace/internal/parallel"
	"inplace/internal/tune"
)

// This file is the public face of the out-of-core engine (internal/ooc):
// transposing matrices that live on storage rather than in memory, under
// a caller-specified scratch budget. The schedule is the same three-pass
// decomposition as the in-memory engine, lifted from cache blocks to
// storage segments; the budget floor is the decomposition's O(max(m,n))
// auxiliary bound made literal.

// Storage is the backend an out-of-core transposition operates on:
// stateless random-access reads and writes. *os.File satisfies it, as
// does any ranged-request adapter over an object store. If the backend
// additionally implements Sync() error, the engine syncs data before
// journal commits, upgrading the journal to a true write-ahead barrier.
type Storage interface {
	io.ReaderAt
	io.WriterAt
}

// DefaultOOCBudget is the scratch ceiling used when OOCOptions.Budget is
// zero: 256 MiB.
const DefaultOOCBudget int64 = 256 << 20

// Typed failures of the out-of-core engine, re-exported for errors.Is
// without importing internal packages.
var (
	// ErrOOCShortRead: a backend read returned fewer bytes than
	// requested after the configured retries.
	ErrOOCShortRead = ooc.ErrShortRead
	// ErrOOCShortWrite: a backend write accepted fewer bytes than
	// requested after the configured retries.
	ErrOOCShortWrite = ooc.ErrShortWrite
	// ErrOOCCorruptSegment: a verified segment did not match the
	// checksum committed in the journal.
	ErrOOCCorruptSegment = ooc.ErrCorruptSegment
	// ErrOOCBudget: the memory budget is below the schedule floor of
	// 2*max(rows,cols) elements.
	ErrOOCBudget = ooc.ErrBudget
	// ErrOOCJournalMismatch: a resume journal records a different
	// geometry than the requested run.
	ErrOOCJournalMismatch = ooc.ErrJournalMismatch
	// ErrOOCJournalCorrupt: the journal header fails validation.
	ErrOOCJournalCorrupt = ooc.ErrJournalCorrupt
	// ErrOOCNoJournal: Resume or Verify requested without a Journal.
	ErrOOCNoJournal = ooc.ErrNoJournal
)

// OOCStats is the counter snapshot an out-of-core run returns: I/O
// volume and call counts, segment pipeline progress, prefetch
// effectiveness, journal traffic and the peak resident scratch.
type OOCStats = ooc.Stats

// OOCOptions parameterizes an out-of-core transposition. The zero value
// is usable: a 256 MiB budget, heuristic direction, derived segment
// schedule, GOMAXPROCS transform workers, no journal.
type OOCOptions struct {
	// Budget is the scratch-memory ceiling in bytes; 0 means
	// DefaultOOCBudget. Budgets below 2*max(rows,cols)*elemSize fail
	// with ErrOOCBudget.
	Budget int64

	// Workers is the transform parallelism within a resident segment;
	// 0 resolves through wisdom, then GOMAXPROCS.
	Workers int

	// Depth is the pipeline depth (in-flight segments across the
	// prefetch/transform/write stages); 0 resolves through wisdom,
	// then 3, degraded automatically under tight budgets.
	Depth int

	// SegmentBytes overrides the derived segment size; 0 resolves
	// through wisdom, then Budget/(2*Depth).
	SegmentBytes int64

	// Direction optionally forces the C2R or R2C pipeline, as for the
	// in-memory planner.
	Direction Direction

	// Journal enables crash-safe progress on the given backend: undo
	// images and checksummed commits make an interrupted run resumable
	// and Verify possible. Nil disables journaling.
	Journal Storage

	// Resume replays the Journal instead of starting fresh: committed
	// segments are skipped, in-flight segments rolled back from their
	// undo images and re-executed.
	Resume bool

	// Verify re-reads the final pass after completion and checks every
	// segment against its committed checksum.
	Verify bool

	// Retries is how many times a failed backend call is re-issued
	// before the run fails; 0 means 2.
	Retries int

	// Tuning controls consultation of the process wisdom table for
	// Workers, Depth and SegmentBytes left at zero, exactly as
	// Options.Tuning does for the in-memory planner.
	Tuning Tuning
}

// oocConfig resolves public options (wisdom included) into the internal
// engine config.
func oocConfig(rows, cols, elemSize int, o OOCOptions) (ooc.Config, error) {
	if _, err := checkShape(rows, cols); err != nil {
		return ooc.Config{}, err
	}
	if elemSize <= 0 {
		return ooc.Config{}, shapeErr(rows, cols)
	}
	if o.Budget <= 0 {
		o.Budget = DefaultOOCBudget
	}
	k := wisdomKey(tune.Key{Kind: tune.KindOOC, Rows: rows, Cols: cols, ElemSize: elemSize}, o.Budget)
	d, ok, err := lookupWisdom(o.Tuning, k)
	if err != nil {
		return ooc.Config{}, err
	}
	if ok {
		if o.SegmentBytes == 0 {
			o.SegmentBytes = d.Chunk
		}
		if o.Depth == 0 {
			o.Depth = d.Depth
		}
		if o.Workers == 0 {
			o.Workers = d.Workers
		}
	}
	dir := ooc.DirAuto
	switch o.Direction {
	case ForceC2R:
		dir = ooc.DirC2R
	case ForceR2C:
		dir = ooc.DirR2C
	}
	return ooc.Config{
		Rows: rows, Cols: cols, ElemSize: elemSize,
		Budget:       o.Budget,
		Workers:      o.Workers,
		Depth:        o.Depth,
		SegmentBytes: o.SegmentBytes,
		Dir:          dir,
		Journal:      o.Journal,
		Resume:       o.Resume,
		Verify:       o.Verify,
		Retries:      o.Retries,
	}, nil
}

// TransposeFile transposes the row-major rows×cols matrix of
// elemSize-byte elements stored on data, in place on the backend,
// within the options' memory budget. Afterwards data holds the
// row-major cols×rows transpose. The element size is arbitrary (any
// positive byte width): the engine permutes opaque fixed-size records.
//
// With OOCOptions.Journal set, progress is crash-safe: re-running with
// Resume converges to the identical result from any interruption point.
func TransposeFile(data Storage, rows, cols, elemSize int, opts ...OOCOptions) (OOCStats, error) {
	var o OOCOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	cfg, err := oocConfig(rows, cols, elemSize, o)
	if err != nil {
		return OOCStats{}, err
	}
	return ooc.Run(data, cfg)
}

// OOCPlanner carries a validated out-of-core schedule for transposing
// one shape repeatedly (or resuming one interrupted run). The schedule
// resolution — budget check, wisdom consultation, segment derivation —
// happens once at construction.
type OOCPlanner struct {
	rows, cols, elem int
	cfg              ooc.Config
}

// NewOOCPlanner validates the shape, budget and options and resolves
// the segment schedule without touching any backend.
func NewOOCPlanner(rows, cols, elemSize int, opts ...OOCOptions) (*OOCPlanner, error) {
	var o OOCOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	cfg, err := oocConfig(rows, cols, elemSize, o)
	if err != nil {
		return nil, err
	}
	if err := ooc.Validate(cfg); err != nil {
		return nil, err
	}
	return &OOCPlanner{rows: rows, cols: cols, elem: elemSize, cfg: cfg}, nil
}

// Transpose runs the planned transposition on data.
func (p *OOCPlanner) Transpose(data Storage) (OOCStats, error) {
	return ooc.Run(data, p.cfg)
}

// Budget returns the resolved scratch-memory ceiling in bytes.
func (p *OOCPlanner) Budget() int64 { return p.cfg.Budget }

// OOCMinBudget returns the smallest legal budget for a shape:
// 2*max(rows,cols)*elemSize bytes, the decomposition's O(max(m,n))
// auxiliary bound.
func OOCMinBudget(rows, cols, elemSize int) (int64, error) {
	if rows <= 0 || cols <= 0 || elemSize <= 0 {
		return 0, shapeErr(rows, cols)
	}
	floor, ok := ooc.MinBudget(rows, cols, elemSize)
	if !ok {
		return 0, overflowErr(rows, cols)
	}
	return floor, nil
}

// OOCTuneResult reports the winning out-of-core schedule of a TuneOOC
// call.
type OOCTuneResult struct {
	Rows, Cols int
	ElemSize   int
	Budget     int64

	SegmentBytes int64
	Depth        int
	Workers      int
	GBps         float64 // effective data-backend throughput of the winner
}

// String summarizes the result.
func (r OOCTuneResult) String() string {
	return fmt.Sprintf("ooc tuned %dx%d (%dB, budget %d): seg=%d depth=%d workers=%d (%.2f GB/s)",
		r.Rows, r.Cols, r.ElemSize, r.Budget, r.SegmentBytes, r.Depth, r.Workers, r.GBps)
}

// TuneOOC measures out-of-core schedule candidates — pipeline depths
// and worker counts under the given budget — by transposing a scratch
// temp file of the real shape, records the winner in the process wisdom
// table under the budget's binary magnitude class, and returns it.
// Subsequent TransposeFile/NewOOCPlanner calls for the shape and budget
// class (with OOCOptions.Tuning at WisdomAuto) use the measured
// schedule; SaveWisdom persists it alongside the in-memory decisions.
//
// The call creates (and removes) a temp file of rows*cols*elemSize
// bytes; expect each candidate to take several full passes over it.
func TuneOOC(rows, cols, elemSize int, budget int64, cfgs ...TuneConfig) (OOCTuneResult, error) {
	cfg := tuneConfig(cfgs)
	size, err := checkShape(rows, cols)
	if err != nil {
		return OOCTuneResult{}, err
	}
	if elemSize <= 0 {
		return OOCTuneResult{}, shapeErr(rows, cols)
	}
	totalBytes, ok := mathutil.CheckedMul(size, elemSize)
	if !ok {
		return OOCTuneResult{}, overflowErr(rows, cols)
	}
	if budget <= 0 {
		budget = DefaultOOCBudget
	}

	f, err := os.CreateTemp("", "inplace-ooc-tune-*")
	if err != nil {
		return OOCTuneResult{}, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	if err := f.Truncate(int64(totalBytes)); err != nil {
		return OOCTuneResult{}, err
	}

	last := make(map[tune.Decision]ooc.Stats) // each candidate's I/O volume
	s := tune.Search[tune.Decision]{Opts: cfg.MeasureOpts, Run: func(d tune.Decision) (func() error, error) {
		oc := ooc.Config{Rows: rows, Cols: cols, ElemSize: elemSize, Budget: budget, Depth: d.Depth, Workers: d.Workers}
		return func() (err error) {
			if last[d], err = ooc.Run(f, oc); err != nil {
				return fmt.Errorf("inplace: ooc tuning candidate depth=%d workers=%d: %w", d.Depth, d.Workers, err)
			}
			return nil
		}, nil
	}}
	maxWorkers := parallel.Workers(cfg.MaxWorkers)
	for depth := 1; depth <= 3; depth++ {
		for _, workers := range []int{1, maxWorkers, maxWorkers / 2} {
			if workers >= 1 {
				s.Try(tune.Decision{Depth: depth, Workers: workers})
			}
		}
	}
	best, ns, err := s.Best()
	if err != nil {
		return OOCTuneResult{}, err
	}
	st := last[best]
	best.Chunk = budget / int64(2*best.Depth)
	if st.SegmentsTransformed > 0 {
		best.Chunk = int64(st.BytesRead / st.SegmentsTransformed)
	}
	best.GBps = float64(st.BytesRead+st.BytesWritten) / ns
	storeWisdom(wisdomKey(tune.Key{Kind: tune.KindOOC, Rows: rows, Cols: cols, ElemSize: elemSize}, budget), best)
	return OOCTuneResult{
		Rows: rows, Cols: cols, ElemSize: elemSize, Budget: budget,
		SegmentBytes: best.Chunk, Depth: best.Depth, Workers: best.Workers, GBps: best.GBps,
	}, nil
}
