// Package tilestore is a chunked columnar dataset store built on the
// repository's transpose machinery. A dataset holds Rows fixed-width
// records of Fields fields; ingest accepts the records row-major (the
// Array-of-Structures layout every producer naturally emits) and runs
// the paper's skinny AoS→SoA specialization (Theorem 7) on each chunk,
// so every column lands contiguous on disk. Scans and projections then
// read coalesced column segments — the storage analogue of the
// memory-coalescing argument the transpose kernels make — through a
// capacity-bounded block cache, verifying the CRC64 frame every
// segment is stored under.
//
// Durability follows the xposed spill registry's meta state machine:
// the data file is written first, and meta.json flips atomically from
// "ingesting" to "sealed" only after everything below it is synced. A
// kill at any earlier point leaves a dataset that Open refuses — to a
// reader the dataset is either absent or fully valid, never torn.
package tilestore

import (
	"fmt"
	"os"

	"inplace/internal/ooc"
	"inplace/internal/stats"
)

// DefaultCacheBytes is the block-cache capacity used when
// Options.CacheBytes is zero: 32 MiB.
const DefaultCacheBytes int64 = 32 << 20

// DefaultMemBudget is the ingest scratch ceiling used when
// Options.MemBudget is zero: 256 MiB, the same default as the
// out-of-core engine.
const DefaultMemBudget int64 = 256 << 20

// Engine supplies typed in-memory AoS↔SoA transposition for chunks
// that fit the memory budget. count is the record count of the chunk,
// fields and elem the schema's field count and element width; data is
// the chunk's count*fields*elem bytes, converted in place. A func may
// return ErrEngineElem to decline an element width, in which case the
// store falls back to its built-in path (the out-of-core panel
// pipeline on an in-memory backend), which permutes opaque records of
// any width. A zero Engine always uses the built-in path.
//
// The public inplace package injects an Engine that routes through its
// planner cache and wisdom tables, so repeated chunks of one shape
// share a plan.
type Engine struct {
	AOSToSOA func(data []byte, count, fields, elem int) error
	SOAToAOS func(data []byte, count, fields, elem int) error
}

// Options parameterizes a dataset handle.
type Options struct {
	// CacheBytes is the block-cache capacity in bytes; 0 means
	// DefaultCacheBytes, raised to one full segment when the schema's
	// segments are larger. An explicit capacity below one segment is
	// rejected with ErrCacheBudget.
	CacheBytes int64

	// MemBudget is the ingest scratch ceiling in bytes; 0 means
	// DefaultMemBudget. Chunks whose AoS image exceeds it are spilled
	// through the out-of-core panel pipeline instead of being
	// transposed resident.
	MemBudget int64

	// Workers is the transform parallelism inside the built-in and
	// spill transpose paths; 0 means GOMAXPROCS.
	Workers int

	// Engine optionally supplies typed in-memory transposition; see
	// Engine.
	Engine Engine

	// Label namespaces the dataset's counters on the stats registry
	// (store_<label>_*); "" derives it from the directory base name.
	Label string

	// Registry receives the dataset's counters; nil means
	// stats.Default().
	Registry *stats.Registry
}

// Dataset is an open dataset handle: either an ingest handle (Create/
// OpenIngest until Seal) or a sealed read handle (Open). Read handles
// are safe for concurrent use; ingest handles are not.
type Dataset struct {
	dir string
	g   geom
	f   *os.File

	state     int
	cache     *blockCache
	ctr       *meters
	engine    Engine
	memBudget int64
	workers   int

	nextChunk int    // ingest cursor
	scratch   []byte // ingest chunk buffer (resident path only)
}

// Create initializes a new dataset directory: the data-file header is
// written and meta.json is persisted in the ingesting state. The
// returned handle accepts Ingest calls and must be sealed (normally by
// Ingest itself) before any Open sees the dataset.
func Create(dir string, s Schema, opts Options) (*Dataset, error) {
	g, err := newGeom(s)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(dataPath(dir), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	d, err := newDataset(dir, g, f, stateIngesting, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	h := g.encodeHeader()
	if err := d.writeAt(h[:], 0); err != nil {
		f.Close()
		return nil, err
	}
	if err := writeMeta(dir, d.meta(stateIngesting)); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// OpenIngest reopens a created-but-unsealed dataset to continue (or
// restart) its ingest. Ingest always rewrites from the first chunk —
// partially written segments from a previous attempt are simply
// overwritten, and nothing becomes visible until Seal.
func OpenIngest(dir string, opts Options) (*Dataset, error) {
	m, g, err := openValidated(dir)
	if err != nil {
		return nil, err
	}
	if m.State != stateIngesting {
		return nil, stateErr("ingest", m.State)
	}
	f, err := os.OpenFile(dataPath(dir), os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	d, err := newDataset(dir, g, f, stateIngesting, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// Open opens a sealed dataset for reading. Unsealed datasets fail with
// ErrNotSealed; a missing meta file surfaces the fs.ErrNotExist from
// the filesystem, so callers distinguish "absent" from "torn".
func Open(dir string, opts Options) (*Dataset, error) {
	m, g, err := openValidated(dir)
	if err != nil {
		return nil, err
	}
	if m.State != stateSealed {
		return nil, fmt.Errorf("%w: state %d", ErrNotSealed, m.State)
	}
	f, err := os.OpenFile(dataPath(dir), os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	if fi, err := f.Stat(); err != nil {
		f.Close()
		return nil, err
	} else if fi.Size() != g.dataBytes {
		f.Close()
		return nil, fmt.Errorf("%w: data file holds %d bytes, schema requires %d",
			ErrCorruptChunk, fi.Size(), g.dataBytes)
	}
	d, err := newDataset(dir, g, f, stateSealed, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// openValidated loads the meta file and cross-checks it against the
// data-file header: both describe the same geometry or the dataset is
// rejected.
func openValidated(dir string) (metaFile, geom, error) {
	m, g, err := readMeta(dir)
	if err != nil {
		return metaFile{}, geom{}, err
	}
	hf, err := os.Open(dataPath(dir))
	if err != nil {
		return metaFile{}, geom{}, err
	}
	defer hf.Close()
	var h [hdrSize]byte
	if _, err := hf.ReadAt(h[:], 0); err != nil {
		return metaFile{}, geom{}, headerErr("unreadable data header")
	}
	hg, err := decodeHeader(h[:])
	if err != nil {
		return metaFile{}, geom{}, err
	}
	if hg.s != g.s || hg.gen != g.gen {
		return metaFile{}, geom{}, headerErr("meta and data header disagree")
	}
	return m, g, nil
}

// newDataset assembles a handle and validates the cache configuration
// against the schema's segment size.
func newDataset(dir string, g geom, f *os.File, state int, opts Options) (*Dataset, error) {
	capacity := opts.CacheBytes
	segFloor := int64(g.segBytes)
	if capacity == 0 {
		capacity = DefaultCacheBytes
		if capacity < segFloor {
			capacity = segFloor
		}
	}
	if capacity < segFloor {
		return nil, cacheBudgetErr(capacity, segFloor)
	}
	budget := opts.MemBudget
	if budget <= 0 {
		budget = DefaultMemBudget
	}
	ctr := newMeters(opts.Registry, sanitizeLabel(opts.Label, dir))
	return &Dataset{
		dir:       dir,
		g:         g,
		f:         f,
		state:     state,
		cache:     newBlockCache(capacity, ctr),
		ctr:       ctr,
		engine:    opts.Engine,
		memBudget: budget,
		workers:   opts.Workers,
	}, nil
}

func (d *Dataset) meta(state int) metaFile {
	return metaFile{
		Magic:      "xtile",
		Version:    formatVersion,
		Rows:       d.g.s.Rows,
		Fields:     d.g.s.Fields,
		ElemSize:   d.g.s.ElemSize,
		ChunkRows:  d.g.s.ChunkRows,
		Generation: d.g.gen,
		State:      state,
		DataBytes:  d.g.dataBytes,
	}
}

// Schema returns the dataset's (normalized) schema.
func (d *Dataset) Schema() Schema { return d.g.s }

// Chunks returns the dataset's chunk count.
func (d *Dataset) Chunks() int { return d.g.chunks }

// Sealed reports whether the handle reads a sealed dataset.
func (d *Dataset) Sealed() bool { return d.state == stateSealed }

// Stats snapshots this handle's counters.
func (d *Dataset) Stats() Stats { return d.ctr.snapshot() }

// CacheResidentBytes reports the block cache's current footprint.
func (d *Dataset) CacheResidentBytes() int64 { return d.cache.residentBytes() }

// Close releases the handle. An unsealed dataset stays in the
// ingesting state — invisible to Open — until a later OpenIngest
// completes it or the directory is removed.
func (d *Dataset) Close() error {
	if d.f == nil {
		return nil
	}
	err := d.f.Close()
	d.f = nil
	return err
}

// readAt is the metered backend read: every byte a projection or scan
// pulls from storage is accounted here, which is what lets the
// selftest prove a projection touches fewer bytes than a scan.
func (d *Dataset) readAt(p []byte, off int64) error {
	n, err := d.f.ReadAt(p, off)
	d.ctr.readOps.inc()
	d.ctr.bytesRead.add(uint64(n))
	if err != nil {
		return fmt.Errorf("tilestore: read %d bytes at %d: %w", len(p), off, err)
	}
	return nil
}

// writeAt is the metered backend write.
func (d *Dataset) writeAt(p []byte, off int64) error {
	n, err := d.f.WriteAt(p, off)
	d.ctr.writeOps.inc()
	d.ctr.bytesWritten.add(uint64(n))
	if err != nil {
		return fmt.Errorf("tilestore: write %d bytes at %d: %w", len(p), off, err)
	}
	return nil
}

// block returns the verified payload of (chunk, col), from cache when
// resident, loading and validating it from the backend otherwise. The
// frame's identity fields and payload length are checked against the
// schema-derived expectation before any byte is trusted, and the
// payload checksum closes the loop.
func (d *Dataset) block(chunk, col int) ([]byte, error) {
	key := blockKey{chunk: chunk, col: col}
	if buf, ok := d.cache.get(key); ok {
		return buf, nil
	}
	payload := d.g.segPayload(chunk)
	off := d.g.segOff(chunk, col)
	var hdr [ooc.FrameHeaderSize]byte
	if err := d.readAt(hdr[:], off); err != nil {
		return nil, err
	}
	fr, ok := ooc.ParseFrame(hdr[:])
	if !ok {
		return nil, corruptErr(chunk, col, "frame header checksum mismatch")
	}
	if err := d.checkFrame(fr, chunk, col, payload); err != nil {
		return nil, err
	}
	buf := make([]byte, payload)
	if err := d.readAt(buf, off+ooc.FrameHeaderSize); err != nil {
		return nil, err
	}
	if sum := ooc.Checksum(buf); sum != fr.PayloadSum {
		return nil, corruptSumErr(chunk, col, fr.PayloadSum, sum)
	}
	return d.cache.put(key, buf), nil
}

// checkFrame validates a decoded segment frame against its expected
// identity. The decoded payload length is compared to the
// schema-derived size — never used for allocation or indexing — so a
// corrupted length can reject the segment but not inflate a buffer.
func (d *Dataset) checkFrame(fr ooc.Frame, chunk, col, payload int) error {
	switch {
	case fr.Kind != segKind:
		return corruptErr(chunk, col, "not a segment frame")
	case fr.Tag != uint32(col) || fr.Unit != uint64(chunk):
		return corruptErr(chunk, col, "frame identity mismatch")
	case fr.Gen != d.g.gen:
		return corruptErr(chunk, col, "frame generation mismatch")
	case fr.PayloadLen != uint64(payload):
		return corruptErr(chunk, col, "frame payload length mismatch")
	}
	return nil
}

// Verify re-reads every segment of the dataset and checks its frame
// and payload checksum, without populating the cache: the integrity
// scan behind `xpose store verify` and the selftest's kill/recover check.
func (d *Dataset) Verify() error {
	if fi, err := d.f.Stat(); err != nil {
		return err
	} else if fi.Size() != d.g.dataBytes {
		return fmt.Errorf("%w: data file holds %d bytes, schema requires %d",
			ErrCorruptChunk, fi.Size(), d.g.dataBytes)
	}
	var hdr [ooc.FrameHeaderSize]byte
	for c := 0; c < d.g.chunks; c++ {
		payload := d.g.segPayload(c)
		for col := 0; col < d.g.s.Fields; col++ {
			off := d.g.segOff(c, col)
			if err := d.readAt(hdr[:], off); err != nil {
				return err
			}
			fr, ok := ooc.ParseFrame(hdr[:])
			if !ok {
				return corruptErr(c, col, "frame header checksum mismatch")
			}
			if err := d.checkFrame(fr, c, col, payload); err != nil {
				return err
			}
			sum, err := ooc.ChecksumRange(d.f, off+ooc.FrameHeaderSize, int64(payload))
			d.ctr.readOps.inc()
			d.ctr.bytesRead.add(uint64(payload))
			if err != nil {
				return fmt.Errorf("tilestore: verifying chunk %d column %d: %w", c, col, err)
			}
			if sum != fr.PayloadSum {
				return corruptSumErr(c, col, fr.PayloadSum, sum)
			}
		}
	}
	return nil
}
