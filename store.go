package inplace

// The public face of the columnar tile store (internal/tilestore): a
// chunked on-disk dataset whose ingest runs the paper's skinny AoS→SoA
// specialization per chunk through this package's planner cache and
// wisdom tables, and whose reads reassemble rows with the inverse
// conversion. The wrapper contributes exactly two things the internal
// package cannot have (it would be an import cycle): the typed
// transpose engine, and wisdom-backed chunk sizing via TuneStore.

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"inplace/internal/mathutil"
	"inplace/internal/parallel"
	"inplace/internal/tilestore"
	"inplace/internal/tune"
)

// DatasetStats is a frozen snapshot of one dataset handle's counters.
type DatasetStats = tilestore.Stats

// Tile-store sentinels, re-exported so callers branch on this package
// alone.
var (
	// ErrCorruptChunk reports a column segment whose checksums or frame
	// identity fail validation.
	ErrCorruptChunk = tilestore.ErrCorruptChunk
	// ErrBadSchema reports an invalid dataset schema or a damaged
	// dataset header or meta file.
	ErrBadSchema = tilestore.ErrBadSchema
	// ErrColumnRange reports a projection column or row window outside
	// the dataset.
	ErrColumnRange = tilestore.ErrColumnRange
	// ErrCacheBudget reports a block-cache capacity below one column
	// segment.
	ErrCacheBudget = tilestore.ErrCacheBudget
	// ErrNotSealed reports an Open of a dataset whose ingest never
	// completed; such a dataset is absent as far as readers go.
	ErrNotSealed = tilestore.ErrNotSealed
)

// DatasetOptions parameterizes CreateDataset/OpenDataset.
type DatasetOptions struct {
	// ChunkRows is the chunk height in records; 0 consults the wisdom
	// table (per Tuning) and falls back to a cache-sized heuristic.
	ChunkRows int

	// CacheBytes is the block-cache capacity; 0 picks the store
	// default (32 MiB, raised to one segment when segments are larger).
	CacheBytes int64

	// MemBudget is the ingest scratch ceiling; chunks above it spill
	// through the out-of-core pipeline. 0 picks the store default.
	MemBudget int64

	// Workers is the transform parallelism; 0 means GOMAXPROCS.
	Workers int

	// Label namespaces the dataset's counters on the shared stats
	// registry (store_<label>_*); "" derives it from the directory.
	Label string

	// Tuning controls consultation of the process wisdom table for a
	// zero ChunkRows, exactly as Options.Tuning does for the planner.
	Tuning Tuning
}

// Dataset is a handle to a columnar dataset: ingesting after
// CreateDataset, reading after OpenDataset. Read handles are safe for
// concurrent use.
type Dataset struct {
	ds *tilestore.Dataset
}

// CreateDataset initializes a dataset of rows records × fields fields of
// elemSize-byte elements under dir and returns an ingest handle. The
// dataset stays invisible to OpenDataset until Ingest completes — a
// kill mid-ingest leaves it absent, never torn.
func CreateDataset(dir string, rows, fields, elemSize int, opts ...DatasetOptions) (*Dataset, error) {
	var o DatasetOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	chunkRows, err := resolveChunkRows(rows, fields, elemSize, o)
	if err != nil {
		return nil, err
	}
	ds, err := tilestore.Create(dir, tilestore.Schema{
		Rows: rows, Fields: fields, ElemSize: elemSize, ChunkRows: chunkRows,
	}, storeOptions(o))
	if err != nil {
		return nil, err
	}
	return &Dataset{ds: ds}, nil
}

// OpenDataset opens a sealed dataset for reading. The schema (chunk
// height included) comes from the dataset itself; only cache, budget and
// metering options apply.
func OpenDataset(dir string, opts ...DatasetOptions) (*Dataset, error) {
	var o DatasetOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	ds, err := tilestore.Open(dir, storeOptions(o))
	if err != nil {
		return nil, err
	}
	return &Dataset{ds: ds}, nil
}

// Ingest consumes exactly rows*fields*elemSize bytes of row-major AoS
// records from r, lays every column out contiguously on disk, and seals
// the dataset.
func (d *Dataset) Ingest(r io.Reader) error { return d.ds.Ingest(r) }

// Scan reads full records [rowLo, rowHi) into dst as row-major AoS
// bytes; dst must hold exactly (rowHi-rowLo)*fields*elemSize bytes.
func (d *Dataset) Scan(dst []byte, rowLo, rowHi int) error {
	return pubStoreErr(d.ds.ScanRows(dst, rowLo, rowHi))
}

// Project gathers the chosen columns of rows [rowLo, rowHi) into dst as
// row-major records of len(cols) fields, touching only the column
// segments it needs; dst must hold (rowHi-rowLo)*len(cols)*elemSize
// bytes. On cache-resident chunks the call is allocation-free.
func (d *Dataset) Project(dst []byte, cols []int, rowLo, rowHi int) error {
	return pubStoreErr(d.ds.Project(dst, cols, rowLo, rowHi))
}

// pubStoreErr maps the store's buffer-length sentinel onto this
// package's ErrLength (the two packages each own one; callers branch on
// the public name) while keeping the internal chain intact. Nil and
// every other error pass through untouched, so the warm success path
// costs nothing.
func pubStoreErr(err error) error {
	if err != nil && errors.Is(err, tilestore.ErrLength) {
		return fmt.Errorf("%w: %w", ErrLength, err)
	}
	return err
}

// Verify re-reads every segment and checks all checksums.
func (d *Dataset) Verify() error { return d.ds.Verify() }

// Rows, Fields and ElemSize return the dataset's schema; ChunkRows its
// (possibly tuned) chunk height.
func (d *Dataset) Rows() int      { return d.ds.Schema().Rows }
func (d *Dataset) Fields() int    { return d.ds.Schema().Fields }
func (d *Dataset) ElemSize() int  { return d.ds.Schema().ElemSize }
func (d *Dataset) ChunkRows() int { return d.ds.Schema().ChunkRows }

// Stats snapshots the handle's cache and I/O counters.
func (d *Dataset) Stats() DatasetStats { return d.ds.Stats() }

// Close releases the handle.
func (d *Dataset) Close() error { return d.ds.Close() }

// storeOptions maps public options onto the internal store, wiring the
// typed engine.
func storeOptions(o DatasetOptions) tilestore.Options {
	return tilestore.Options{
		CacheBytes: o.CacheBytes,
		MemBudget:  o.MemBudget,
		Workers:    o.Workers,
		Label:      o.Label,
		Engine:     datasetEngine(o.Workers),
	}
}

// datasetEngine is the typed transpose the store runs per chunk: this
// package's planner-cache-backed AoS↔SoA conversion over the chunk
// bytes as words of the element width. Widths without a word type are
// declined with ErrEngineElem, and the store falls back to its
// built-in opaque-record path.
func datasetEngine(workers int) tilestore.Engine {
	opt := Options{Workers: workers}
	return tilestore.Engine{
		AOSToSOA: func(data []byte, count, fields, elem int) error {
			return engineErr(TransposeElem(data, count, fields, elem, opt))
		},
		SOAToAOS: func(data []byte, count, fields, elem int) error {
			return engineErr(TransposeElem(data, fields, count, elem, opt))
		},
	}
}

// engineErr maps ErrElemSize onto the store's decline sentinel.
func engineErr(err error) error {
	if errors.Is(err, ErrElemSize) {
		return tilestore.ErrEngineElem
	}
	return err
}

// resolveChunkRows picks the chunk height: explicit > wisdom > the
// static heuristic.
func resolveChunkRows(rows, fields, elemSize int, o DatasetOptions) (int, error) {
	if o.ChunkRows != 0 {
		return o.ChunkRows, nil
	}
	d, ok, err := lookupWisdom(o.Tuning, wisdomKey(tune.Key{Kind: tune.KindStore, Rows: rows, Cols: fields, ElemSize: elemSize}, 0))
	if err != nil {
		return 0, err
	}
	if ok {
		return int(d.Chunk), nil
	}
	return defaultChunkRows(rows, fields, elemSize), nil
}

// defaultChunkRows targets chunks of ~4 MiB of AoS input — small enough
// that the per-chunk transpose stays resident under any sane budget,
// tall enough that segments are worth a seek — clamped to the dataset.
func defaultChunkRows(rows, fields, elemSize int) int {
	const targetChunk = 4 << 20
	rowBytes, ok := mathutil.CheckedMul(fields, elemSize)
	if !ok || rowBytes <= 0 {
		return 1
	}
	cr := targetChunk / rowBytes
	if cr < 1 {
		cr = 1
	}
	if cr > rows && rows > 0 {
		cr = rows
	}
	return cr
}

// StoreTuneResult reports the winning ingest configuration of a
// TuneStore call.
type StoreTuneResult struct {
	Rows, Fields int
	ElemSize     int

	ChunkRows int
	Workers   int
	GBps      float64 // ingest throughput of the winner (AoS bytes in)
}

// String summarizes the result.
func (r StoreTuneResult) String() string {
	return fmt.Sprintf("store tuned %d rows × %d fields (%dB): chunk_rows=%d workers=%d (%.2f GB/s)",
		r.Rows, r.Fields, r.ElemSize, r.ChunkRows, r.Workers, r.GBps)
}

// TuneStore measures tile-store ingest across chunk heights for a
// schema by building scratch datasets of the real shape in a temp
// directory, records the winner in the process wisdom table under the
// row count's binary magnitude class, and returns it. Subsequent
// CreateDataset calls for a matching schema (with DatasetOptions.Tuning
// at WisdomAuto and ChunkRows zero) use the measured chunk height;
// SaveWisdom persists it alongside the transpose decisions.
//
// The call writes (and removes) scratch datasets of rows*fields*elemSize
// bytes each; expect several full ingests per candidate.
func TuneStore(rows, fields, elemSize int, cfgs ...TuneConfig) (StoreTuneResult, error) {
	cfg := tuneConfig(cfgs)
	if rows <= 0 || fields <= 0 || elemSize <= 0 {
		return StoreTuneResult{}, shapeErr(rows, fields)
	}
	rowBytes, ok := mathutil.CheckedMul(fields, elemSize)
	if !ok {
		return StoreTuneResult{}, overflowErr(rows, fields)
	}
	total, ok := mathutil.CheckedMul(rows, rowBytes)
	if !ok {
		return StoreTuneResult{}, overflowErr(rows, fields)
	}

	scratch, err := os.MkdirTemp("", "inplace-store-tune-*")
	if err != nil {
		return StoreTuneResult{}, err
	}
	defer os.RemoveAll(scratch)

	input := make([]byte, total)
	for i := range input {
		input[i] = byte(i*2654435761 + i>>8)
	}
	workers := parallel.Workers(cfg.MaxWorkers)
	runs := 0
	s := tune.Search[tune.Decision]{Opts: cfg.MeasureOpts, Run: func(d tune.Decision) (func() error, error) {
		schema := tilestore.Schema{Rows: rows, Fields: fields, ElemSize: elemSize, ChunkRows: int(d.Chunk)}
		opts := tilestore.Options{Workers: workers, Engine: datasetEngine(workers), Label: "tune"}
		// Every run ingests a fresh dataset: creating and removing it is
		// part of the measured cost.
		return func() error {
			runs++
			dir := filepath.Join(scratch, fmt.Sprintf("run-%d", runs))
			ds, err := tilestore.Create(dir, schema, opts)
			if err != nil {
				return err
			}
			return cmp.Or(ds.Ingest(bytes.NewReader(input)), ds.Close(), os.RemoveAll(dir))
		}, nil
	}}
	// Candidate chunk heights: the heuristic and its neighbors two
	// octaves either way, clamped to the dataset.
	base := defaultChunkRows(rows, fields, elemSize)
	for _, chunkRows := range []int{base / 4, base / 2, base, base * 2, base * 4} {
		s.Try(tune.Decision{Chunk: int64(min(max(chunkRows, 1), rows)), Workers: workers})
	}
	best, ns, err := s.Best()
	if err != nil {
		return StoreTuneResult{}, err
	}
	best.GBps = float64(total) / ns
	storeWisdom(wisdomKey(tune.Key{Kind: tune.KindStore, Rows: rows, Cols: fields, ElemSize: elemSize}, 0), best)
	return StoreTuneResult{
		Rows: rows, Fields: fields, ElemSize: elemSize,
		ChunkRows: int(best.Chunk), Workers: best.Workers, GBps: best.GBps,
	}, nil
}
