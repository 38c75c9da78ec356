package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"inplace"
	"inplace/internal/stats"
)

// disk is the storage workload: two goroutines on files under a temp
// dir. The writer runs blocks of a journaled TransposeFile of an 8 MiB
// matrix file (budget about 1/8 of the file), a CreateDataset+Ingest of
// an 8 MiB AoS file, and the TransposeFile back; the sizes keep a run's
// writer ops in the dozens, enough for a tail percentile. The reader issues
// Zipf-skewed Project calls, paced at one per millisecond so that it and
// the collection work it causes leave the writer its core, over two
// sealed 48 MiB datasets, each larger
// than its 32 MiB default block cache, so the hit ratio sits strictly
// between 0 and 1. Chosen because I/O, journaling, checksums and the
// block cache dominate while the engine is a minor share, and because
// the reads run beside the writes, a writer-side gain that costs the
// readers shows up in the same run. The transposes' syncs are counted
// but not flushed to the device (see fileStorage).
const (
	matRows, matCols = 1024, 1031 // coprime; 8-byte elements
	matBytes         = matRows * matCols * 8

	ingestRows, ingestFields = 1 << 18, 8 // 4-byte fields, two default-size chunks
	ingestBytes              = ingestRows * ingestFields * 4

	readSets               = 2
	readRows, readFields   = 12 << 16, 16 // 4-byte fields, 12 default-size chunks
	readWindow, readCols   = 1024, 4      // rows and columns per Project call
	readZipfS              = 1.1
	readWarmups            = 4000
	readEvery              = time.Millisecond
	readLabel, ingestLabel = "perfbench_read", "perfbench_ingest"
)

type diskWL struct {
	dir      string
	mat, jrn *os.File
	matBase  uint64
	flipped  bool
	budget   int64
	aosPath  string
	aosBase  uint64
	sets     []*readSet
	ingests  int

	// Filled by traced ops only.
	io       ioTimes
	oocRuns  []inplace.OOCStats
	ingestMs []float64
}

// readSet is one sealed dataset the reader projects from.
type readSet struct {
	dir  string
	base uint64
	ds   *inplace.Dataset
}

func runDisk(cfg *config, rep *report, tr *tracer) error {
	d, err := newDisk(cfg)
	if err != nil {
		return err
	}
	defer d.close()
	// Set-up is opening the sealed datasets the reader serves from.
	setup, err := timeSetup(setupRounds, d.openSets, d.closeSets)
	if err != nil {
		return err
	}
	// Warm-up: one writer block puts the files in the page cache and
	// the ingest plans in the planner cache; reads fill the block caches.
	warm := newOpLog()
	if err := d.writerBlock(warm, nil); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	r := d.newReader(rng)
	for i := 0; i < readWarmups; i++ {
		r.read(warm, nil)
	}
	rep.count(warm)

	if tr == nil {
		peak := startPeakRSS(rep)
		w, rd, err := d.phase(cfg.seconds, r, nil)
		rss := peak()
		if err != nil {
			return err
		}
		rep.count(w)
		rep.count(rd)
		recordEndToEnd(rep, cfg, w, false, setup, rss)
		recordLatency(rep, "read", "us", rd.lat, 1e3, "Project calls")
		return nil
	}

	half := cfg.seconds / 2
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wA, rA, err := d.phase(half, r, nil)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	rep.count(wA)
	rep.count(rA)
	recordRuntime(rep, &m0, &m1, len(wA.lat)+len(rA.lat))

	c0, s0 := readCacheCounts(), d.setStats()
	wB, rB, err := d.phase(half, r, tr)
	if err != nil {
		return err
	}
	rep.count(wB)
	rep.count(rB)
	recordCache(rep, c0, readCacheCounts())
	rep.set("trace.overhead_ratio", "ratio", gbps(wB.bytes, wB.busy)/gbps(wA.bytes, wA.busy))
	d.recordOOC(rep)
	s1 := d.setStats()
	hits, misses := float64(s1.CacheHits-s0.CacheHits), float64(s1.CacheMisses-s0.CacheMisses)
	reads := float64(s1.Projections - s0.Projections)
	rep.set("tilestore.cache_hit_ratio", "ratio", hits/(hits+misses))
	rep.set("tilestore.bytes_read_per_read", "B", float64(s1.BytesRead-s0.BytesRead)/reads)
	rep.set("tilestore.evictions_per_read", "count", float64(s1.CacheEvictions-s0.CacheEvictions)/reads)
	rep.set("tilestore.ingest_ms", "ms", stats.Mean(d.ingestMs))
	recordLatency(rep, "tilestore.read", "us", rB.lat, 1e3, "Project calls")
	return d.planBuild(rep)
}

// newDisk generates the inputs: the matrix file, its journal, the AoS
// file the writer ingests, and the sealed datasets the reader serves.
func newDisk(cfg *config) (*diskWL, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	d := &diskWL{
		dir:     cfg.dir,
		matBase: uint64(rng.Int63()),
		aosBase: uint64(rng.Int63()),
		budget:  matBytes / 8,
		aosPath: filepath.Join(cfg.dir, "ingest.aos"),
	}
	var err error
	if d.mat, err = createPattern(filepath.Join(cfg.dir, "matrix.bin"), matRows*matCols, 8, d.matBase); err != nil {
		return nil, err
	}
	if d.jrn, err = os.Create(filepath.Join(cfg.dir, "matrix.jrn")); err != nil {
		d.close()
		return nil, err
	}
	if err := writePattern(d.aosPath, ingestRows*ingestFields, d.aosBase); err != nil {
		d.close()
		return nil, err
	}
	src := filepath.Join(cfg.dir, "read.aos")
	for i := 0; i < readSets; i++ {
		s := &readSet{dir: filepath.Join(cfg.dir, fmt.Sprintf("read%d", i)), base: uint64(rng.Int63())}
		if err := writePattern(src, readRows*readFields, s.base); err != nil {
			d.close()
			return nil, err
		}
		if err := ingestFile(s.dir, src, readRows, readFields, readLabel); err != nil {
			d.close()
			return nil, err
		}
		d.sets = append(d.sets, s)
	}
	return d, os.Remove(src)
}

// writePattern writes n 4-byte pattern elements to a new file at path.
func writePattern(path string, n int64, base uint64) error {
	f, err := createPattern(path, n, 4, base)
	if err != nil {
		return err
	}
	return f.Close()
}

func (d *diskWL) close() {
	d.closeSets()
	for _, f := range []*os.File{d.mat, d.jrn} {
		if f != nil {
			f.Close()
		}
	}
}

func (d *diskWL) openSets() error {
	for _, s := range d.sets {
		ds, err := inplace.OpenDataset(s.dir, inplace.DatasetOptions{Label: readLabel})
		if err != nil {
			return err
		}
		s.ds = ds
	}
	return nil
}

func (d *diskWL) closeSets() error {
	var first error
	for _, s := range d.sets {
		if s.ds == nil {
			continue
		}
		if err := s.ds.Close(); err != nil && first == nil {
			first = err
		}
		s.ds = nil
	}
	return first
}

// setStats sums the read handles' counters.
func (d *diskWL) setStats() inplace.DatasetStats {
	var t inplace.DatasetStats
	for _, s := range d.sets {
		st := s.ds.Stats()
		t.CacheHits += st.CacheHits
		t.CacheMisses += st.CacheMisses
		t.CacheEvictions += st.CacheEvictions
		t.BytesRead += st.BytesRead
		t.Projections += st.Projections
	}
	return t
}

// phase runs the writer on this goroutine and the paced reader beside
// it until dur has passed, finishing the writer's current block. A
// reader that falls behind its pace catches up without sleeping.
func (d *diskWL) phase(dur time.Duration, r *reader, tr *tracer) (w, rd *opLog, err error) {
	w, rd = newOpLog(), newOpLog()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		next := time.Now()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.read(rd, tr)
			next = next.Add(readEvery)
			if wait := time.Until(next); wait > 0 {
				time.Sleep(wait)
			}
		}
	}()
	start := time.Now()
	w.begin(start, dur)
	for err == nil && time.Since(start) < dur {
		err = d.writerBlock(w, tr)
		w.tick(time.Now())
	}
	w.finish(time.Now())
	close(stop)
	<-done
	return w, rd, err
}

// writerBlock is a transpose, an ingest and the transpose back. Twice as
// many transposes as ingests keep the median op inside one op type.
func (d *diskWL) writerBlock(l *opLog, tr *tracer) error {
	if err := d.transposeOp(l, tr); err != nil {
		return err
	}
	if err := d.ingestOp(l, tr); err != nil {
		return err
	}
	return d.transposeOp(l, tr)
}

// transposeOp runs one journaled TransposeFile on the matrix file and
// checks the whole file against the expected transpose.
func (d *diskWL) transposeOp(l *opLog, tr *tracer) error {
	if err := d.jrn.Truncate(0); err != nil {
		return err
	}
	rows, cols, class := matRows, matCols, "transpose_file/fwd"
	if d.flipped {
		rows, cols, class = matCols, matRows, "transpose_file/back"
	}
	id := tr.begin("ooc", class, -1)
	data := &fileStorage{f: d.mat, t: &d.io, timed: tr != nil}
	jrn := &fileStorage{f: d.jrn, t: &d.io, timed: tr != nil}
	io0 := d.io.total()
	t0 := time.Now()
	st, err := inplace.TransposeFile(data, rows, cols, 8, inplace.OOCOptions{Budget: d.budget, Journal: jrn})
	el := time.Since(t0)
	tr.end(id)
	// The engine makes tens of thousands of storage calls per op, too
	// many to span one by one: one child span carries their summed time.
	tr.addChild(id, "storage", "read+write", min(d.io.total()-io0, el))
	if err == nil {
		d.flipped = !d.flipped
		if tr != nil {
			d.oocRuns = append(d.oocRuns, st)
		}
	}
	ok := err == nil && checkFile(d.mat, matBytes, 8, d.matBase, &cursor{rows: matRows, cols: matCols, transposed: d.flipped})
	l.record(class, el, matBytes, err, ok)
	return nil
}

// ingestOp ingests the AoS file into a fresh dataset, checks it and
// removes it.
func (d *diskWL) ingestOp(l *opLog, tr *tracer) error {
	d.ingests++
	dir := filepath.Join(d.dir, fmt.Sprintf("ingest%d", d.ingests))
	id := tr.begin("tilestore", "ingest", -1)
	t0 := time.Now()
	err := ingestFile(dir, d.aosPath, ingestRows, ingestFields, ingestLabel)
	el := time.Since(t0)
	tr.end(id)
	if tr != nil {
		d.ingestMs = append(d.ingestMs, ms(el))
	}
	l.record("ingest", el, ingestBytes, err, err == nil && checkDataset(dir, ingestRows, ingestFields, d.aosBase))
	return os.RemoveAll(dir)
}

// ingestFile creates a dataset under dir and ingests the AoS file src.
func ingestFile(dir, src string, rows, fields int, label string) error {
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	ds, err := inplace.CreateDataset(dir, rows, fields, 4, inplace.DatasetOptions{Label: label})
	if err != nil {
		return err
	}
	if err := ds.Ingest(bufio.NewReaderSize(f, 1<<20)); err != nil {
		ds.Close()
		return err
	}
	return ds.Close()
}

// checkDataset is the ingest oracle: the sealed dataset passes Verify
// and scans back to the AoS pattern it was fed.
func checkDataset(dir string, rows, fields int, base uint64) bool {
	ds, err := inplace.OpenDataset(dir, inplace.DatasetOptions{Label: ingestLabel})
	if err != nil {
		return false
	}
	defer ds.Close()
	if ds.Verify() != nil {
		return false
	}
	const window = 4096
	n, err := elems(window, fields, 4)
	if err != nil {
		return false
	}
	buf := make([]byte, n)
	c := &cursor{rows: rows, cols: fields}
	for lo := 0; lo < rows; lo += window {
		hi := min(lo+window, rows)
		b := buf[:(hi-lo)*fields*4]
		if ds.Scan(b, lo, hi) != nil || !checkBytes(b, 4, base, c) {
			return false
		}
	}
	return true
}

// reader issues the Zipf-skewed Project calls: a seeded ranking of
// every (dataset, chunk) pair, a Zipf draw over the ranks, a random
// window of rows inside the chunk and random distinct columns.
type reader struct {
	d       *diskWL
	rng     *rand.Rand
	zipf    *rand.Zipf
	rank    []int
	dst     []byte
	cols    []int
	allCols []int
}

func (d *diskWL) newReader(rng *rand.Rand) *reader {
	chunks := readRows / d.sets[0].ds.ChunkRows()
	slots := readSets * chunks
	r := &reader{
		d:       d,
		rng:     rng,
		zipf:    rand.NewZipf(rng, readZipfS, 1, uint64(slots-1)),
		rank:    rng.Perm(slots),
		dst:     make([]byte, readWindow*readCols*4),
		cols:    make([]int, readCols),
		allCols: make([]int, readFields),
	}
	for i := range r.allCols {
		r.allCols[i] = i
	}
	return r
}

func (r *reader) read(l *opLog, tr *tracer) {
	slot := r.rank[r.zipf.Uint64()]
	s := r.d.sets[slot%readSets]
	chunkRows := s.ds.ChunkRows()
	lo := (slot/readSets)*chunkRows + r.rng.Intn(chunkRows-readWindow+1)
	// A partial shuffle picks distinct columns; an insertion sort orders them.
	for i := 0; i < readCols; i++ {
		j := i + r.rng.Intn(readFields-i)
		r.allCols[i], r.allCols[j] = r.allCols[j], r.allCols[i]
		r.cols[i] = r.allCols[i]
		for k := i; k > 0 && r.cols[k] < r.cols[k-1]; k-- {
			r.cols[k], r.cols[k-1] = r.cols[k-1], r.cols[k]
		}
	}
	id := tr.begin("tilestore", "project", -1)
	t0 := time.Now()
	err := s.ds.Project(r.dst, r.cols, lo, lo+readWindow)
	el := time.Since(t0)
	tr.end(id)
	l.record("project", el, len(r.dst), err, err == nil && r.check(s, lo))
}

// check compares a projection against the AoS pattern the set was
// ingested from.
func (r *reader) check(s *readSet, lo int) bool {
	off := 0
	for row := lo; row < lo+readWindow; row++ {
		for _, c := range r.cols {
			if getElem(r.dst[off:], 4) != (s.base+uint64(row*readFields+c))&mask32 {
				return false
			}
			off += 4
		}
	}
	return true
}

// ioTimes is the time the ooc layer spent reading and writing the
// storage the benchmark passed in, and the syncs it asked for, summed
// over the traced TransposeFile ops.
type ioTimes struct{ read, write, syncs atomic.Int64 }

func (t *ioTimes) total() time.Duration {
	return time.Duration(t.read.Load() + t.write.Load())
}

// fileStorage is the Storage the ooc layer gets for a file. It has a
// Sync, so the engine journals exactly as it does with the bare file,
// but the sync is counted, not forwarded: a flush to a shared virtual
// disk takes tens of milliseconds that vary from run to run with other
// tenants' I/O, so the benchmark measures how often the engine asks for
// durability rather than how long the device takes to give it. When
// timed is set, every read and write is timed too.
type fileStorage struct {
	f     *os.File
	t     *ioTimes
	timed bool
}

func (s *fileStorage) ReadAt(p []byte, off int64) (int, error) {
	if !s.timed {
		return s.f.ReadAt(p, off)
	}
	t0 := time.Now()
	n, err := s.f.ReadAt(p, off)
	s.t.read.Add(int64(time.Since(t0)))
	return n, err
}

func (s *fileStorage) WriteAt(p []byte, off int64) (int, error) {
	if !s.timed {
		return s.f.WriteAt(p, off)
	}
	t0 := time.Now()
	n, err := s.f.WriteAt(p, off)
	s.t.write.Add(int64(time.Since(t0)))
	return n, err
}

func (s *fileStorage) Sync() error {
	if s.timed {
		s.t.syncs.Add(1)
	}
	return nil
}

// recordOOC reports the out-of-core layer from the traced transposes.
func (d *diskWL) recordOOC(rep *report) {
	n := float64(len(d.oocRuns))
	var rw, calls, jb, hits, misses, peak float64
	for _, st := range d.oocRuns {
		rw += float64(st.BytesRead + st.BytesWritten)
		calls += float64(st.ReadOps + st.WriteOps)
		jb += float64(st.JournalBytes)
		hits += float64(st.PrefetchHits)
		misses += float64(st.PrefetchMisses)
		peak += float64(st.PeakResidentBytes)
	}
	rep.set("ooc.read_ms", "ms", float64(d.io.read.Load())/1e6/n)
	rep.set("ooc.write_ms", "ms", float64(d.io.write.Load())/1e6/n)
	rep.set("ooc.syncs_per_op", "count", float64(d.io.syncs.Load())/n)
	rep.set("ooc.io_amplification", "ratio", rw/(2*matBytes*n))
	rep.set("ooc.bytes_per_io", "B", rw/calls)
	rep.set("ooc.journal_bytes_ratio", "ratio", jb/(matBytes*n))
	rep.set("ooc.prefetch_stall_ratio", "ratio", misses/(hits+misses))
	rep.set("ooc.peak_resident_ratio", "ratio", peak/(float64(d.budget)*n))
}

// planBuild times NewOOCPlanner for both orientations of the matrix.
func (d *diskWL) planBuild(rep *report) error {
	xs := make([]float64, 0, setupRounds)
	for r := 0; r < setupRounds; r++ {
		t0 := time.Now()
		for _, s := range [2][2]int{{matRows, matCols}, {matCols, matRows}} {
			if _, err := inplace.NewOOCPlanner(s[0], s[1], 8, inplace.OOCOptions{Budget: d.budget}); err != nil {
				return err
			}
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3/2)
	}
	rep.set("inplace.plan_build_us", "us", stats.Median(xs))
	return nil
}
