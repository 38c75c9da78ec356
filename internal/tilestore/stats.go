package tilestore

import (
	"path/filepath"
	"strings"

	"inplace/internal/stats"
)

// Per-dataset metering. Every counter exists twice: a private
// stats.Counter owned by the Dataset (the precise per-handle surface
// that Stats() snapshots and the selftest asserts on) and a named
// counter on the shared registry under store_<label>_*, so exporters —
// the xposed /stats endpoint, `xpose store stats` — enumerate every
// dataset's cache and I/O traffic alongside the planner-cache and
// out-of-core metrics without knowing who owns them. Two datasets
// opened with the same label share the registry counters (registry
// names are stable handles, the usual registry semantics) but never
// the per-handle ones.

// meter is one double-booked counter.
type meter struct {
	own stats.Counter
	reg *stats.Counter
}

func (m *meter) inc() {
	m.own.Inc()
	m.reg.Inc()
}

func (m *meter) add(n uint64) {
	m.own.Add(n)
	m.reg.Add(n)
}

func (m *meter) load() uint64 { return m.own.Load() }

// meters is the full per-dataset counter set.
type meters struct {
	cacheHits      meter
	cacheMisses    meter
	cacheEvictions meter

	bytesRead    meter
	readOps      meter
	bytesWritten meter
	writeOps     meter

	chunksIngested  meter
	spills          meter
	segmentsWritten meter

	projections meter
	scans       meter
}

// newMeters wires every meter's registry half under store_<label>_*.
func newMeters(reg *stats.Registry, label string) *meters {
	if reg == nil {
		reg = stats.Default()
	}
	p := "store_" + label + "_"
	m := &meters{}
	for _, w := range []struct {
		name string
		m    *meter
	}{
		{"cache_hits", &m.cacheHits},
		{"cache_misses", &m.cacheMisses},
		{"cache_evictions", &m.cacheEvictions},
		{"bytes_read", &m.bytesRead},
		{"read_ops", &m.readOps},
		{"bytes_written", &m.bytesWritten},
		{"write_ops", &m.writeOps},
		{"chunks_ingested", &m.chunksIngested},
		{"spills", &m.spills},
		{"segments_written", &m.segmentsWritten},
		{"projections", &m.projections},
		{"scans", &m.scans},
	} {
		w.m.reg = reg.Counter(p + w.name)
	}
	return m
}

// Stats is a frozen snapshot of one dataset handle's counters.
type Stats struct {
	// CacheHits, CacheMisses and CacheEvictions meter the block cache:
	// hits serve projections without touching the backend.
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64

	// BytesRead/ReadOps and BytesWritten/WriteOps count data-file
	// backend traffic. A projection of k of n columns reads ~k/n of a
	// full scan's bytes — the coalesced-column payoff, asserted by the
	// `xpose store` selftest.
	BytesRead    uint64
	ReadOps      uint64
	BytesWritten uint64
	WriteOps     uint64

	// ChunksIngested counts chunks transposed on ingest; Spills counts
	// those routed through the out-of-core panel pipeline because they
	// exceeded the memory budget; SegmentsWritten counts framed column
	// segments landed on disk.
	ChunksIngested  uint64
	Spills          uint64
	SegmentsWritten uint64

	// Projections and Scans count read calls served.
	Projections uint64
	Scans       uint64
}

func (m *meters) snapshot() Stats {
	return Stats{
		CacheHits:       m.cacheHits.load(),
		CacheMisses:     m.cacheMisses.load(),
		CacheEvictions:  m.cacheEvictions.load(),
		BytesRead:       m.bytesRead.load(),
		ReadOps:         m.readOps.load(),
		BytesWritten:    m.bytesWritten.load(),
		WriteOps:        m.writeOps.load(),
		ChunksIngested:  m.chunksIngested.load(),
		Spills:          m.spills.load(),
		SegmentsWritten: m.segmentsWritten.load(),
		Projections:     m.projections.load(),
		Scans:           m.scans.load(),
	}
}

// sanitizeLabel maps an arbitrary dataset path or label onto the
// registry's snake_case namespace.
func sanitizeLabel(label, dir string) string {
	if label == "" {
		label = filepath.Base(filepath.Clean(dir))
	}
	var b strings.Builder
	for _, r := range strings.ToLower(label) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "dataset"
	}
	return b.String()
}
