package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"inplace"
	"inplace/internal/mathutil"
)

// aosBuf allocates a rows×fields record image of elem-byte elements,
// panicking on int overflow (bench shapes are preset-bounded).
func aosBuf(rows, fields, elem int) []byte {
	rf, ok := mathutil.CheckedMul(rows, fields)
	if !ok {
		panic("bench: tilestore shape overflows int")
	}
	n, ok := mathutil.CheckedMul(rf, elem)
	if !ok {
		panic("bench: tilestore shape overflows int")
	}
	return make([]byte, n)
}

func init() {
	Register(Experiment{
		ID: "tilestore", Title: "columnar tile store: projection width × cache sweep",
		Axes: []string{"rows", "fields", "proj_cols", "cache_bytes"}, Unit: "GB/s", Series: []string{"tilestore"},
		Run: Tilestore,
	})
}

// tilestoreShape returns the dataset measured by the tilestore
// experiment at each scale (4-byte elements; fields swept separately).
func tilestoreShape(s Scale) (rows, chunkRows int) {
	switch s {
	case TinyScale:
		return 4096, 512
	case SmallScale:
		return 16384, 2048
	case LargeScale:
		return 65536, 8192
	default: // PaperScale
		return 131072, 16384
	}
}

// Tilestore measures the columnar store's read side: datasets of two
// field widths are built on a temp directory, then projections of
// increasing column width — through to the full-scan degenerate case —
// are driven under a tight and a roomy block cache. Reported per point:
// warm projection throughput (projected bytes per wall second), the
// block-cache hit rate over the passes, and the fraction of a full
// scan's backend bytes the projection's cold pass touched (the
// coalesced-column payoff; 1.0 for the scan itself).
func Tilestore(cfg Config) []Result {
	const elem = 4
	rows, chunkRows := tilestoreShape(cfg.Scale)
	const passes = 8

	scratch, err := os.MkdirTemp("", "bench-tilestore-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(scratch)

	var b strings.Builder
	fmt.Fprintf(&b, "Tilestore: columnar projection, %d rows (4-byte elements, chunk height %d), %d workers\n",
		rows, chunkRows, cfg.workers())
	fmt.Fprintf(&b, "  %-26s %12s %12s %12s\n", "config", "GB/s", "cache hit", "scan-byte frac")

	var csvRows [][]float64
	for _, fields := range []int{8, 16} {
		dir := filepath.Join(scratch, fmt.Sprintf("ds-%d", fields))
		aos := aosBuf(rows, fields, elem)
		fillAoS(aos)
		ds, err := inplace.CreateDataset(dir, rows, fields, elem, inplace.DatasetOptions{
			ChunkRows: chunkRows, Workers: cfg.Workers, Label: "bench",
		})
		if err != nil {
			panic(err)
		}
		if err := ds.Ingest(newByteReader(aos)); err != nil {
			panic(err)
		}
		ds.Close()

		// Cold full-scan bytes: the denominator of the payoff column.
		probe, err := inplace.OpenDataset(dir, inplace.DatasetOptions{Label: "bench"})
		if err != nil {
			panic(err)
		}
		full := aosBuf(rows, fields, elem)
		if err := probe.Scan(full, 0, rows); err != nil {
			panic(err)
		}
		scanBytes := probe.Stats().BytesRead
		probe.Close()

		segBytes := int64(chunkRows * elem)
		for _, proj := range []int{1, fields / 4, fields} {
			cols := make([]int, proj)
			for i := range cols {
				cols[i] = (i * fields) / proj // spread across the record
			}
			for _, cache := range []struct {
				label string
				bytes int64
			}{
				{"tight", 2 * segBytes}, // two segments: every pass re-reads
				{"roomy", 0},            // store default: everything resident
			} {
				d, err := inplace.OpenDataset(dir, inplace.DatasetOptions{
					CacheBytes: cache.bytes, Workers: cfg.Workers, Label: "bench",
				})
				if err != nil {
					panic(err)
				}
				dst := aosBuf(rows, proj, elem)
				// Cold pass: populates the cache and counts the backend
				// bytes the projection actually needs.
				if err := d.Project(dst, cols, 0, rows); err != nil {
					panic(err)
				}
				coldBytes := d.Stats().BytesRead

				dur := Time(func() {
					for p := 0; p < passes; p++ {
						if err := d.Project(dst, cols, 0, rows); err != nil {
							panic(err)
						}
					}
				})
				st := d.Stats()
				d.Close()

				secs := dur.Seconds() / passes
				if secs <= 0 {
					secs = 1e-9
				}
				gbps := float64(len(dst)) / secs / 1e9
				hitRate := 0.0
				if tot := st.CacheHits + st.CacheMisses; tot > 0 {
					hitRate = float64(st.CacheHits) / float64(tot)
				}
				frac := 0.0
				if scanBytes > 0 {
					frac = float64(coldBytes) / float64(scanBytes)
				}
				fmt.Fprintf(&b, "  %2df proj %2d/%2d %-6s %10.2f %11.0f%% %13.2f\n",
					fields, proj, fields, cache.label, gbps, hitRate*100, frac)
				csvRows = append(csvRows, []float64{
					float64(rows), float64(fields), float64(proj),
					float64(resolveCache(cache.bytes, segBytes)),
					gbps, hitRate, frac,
				})
			}
		}
	}

	return []Result{{
		Name: "tilestore",
		Text: b.String(),
		CSV: CSV([]string{"rows", "fields", "proj_cols", "cache_bytes",
			"gbps", "cache_hit_rate", "scan_byte_frac"}, csvRows),
	}}
}

// resolveCache mirrors the store's capacity defaulting for the CSV axis
// (0 means the 32 MiB default, raised to one segment).
func resolveCache(requested, segBytes int64) int64 {
	if requested != 0 {
		return requested
	}
	c := int64(32 << 20)
	if c < segBytes {
		c = segBytes
	}
	return c
}

// tilestoreMicroCase is the micro-suite member: a warm 3-column
// projection on a fully cache-resident dataset — the store's zero-alloc
// hot path, so allocs/op lands in the envelope alongside ns/op.
func tilestoreMicroCase(d microDims, w int) MicroCase {
	const elem = 4
	var dir string
	var ds *inplace.Dataset
	return MicroCase{
		Name: fmt.Sprintf("tilestore_project_%dx%d_p%d_w%d", d.storeRows, d.storeFields, d.storeProj, w),
		M:    d.storeRows, N: d.storeProj, ElemBytes: elem,
		Prep: func() func() {
			var err error
			dir, err = os.MkdirTemp("", "bench-tilestore-micro-*")
			if err != nil {
				panic(err)
			}
			aos := aosBuf(d.storeRows, d.storeFields, elem)
			fillAoS(aos)
			path := filepath.Join(dir, "ds")
			wr, err := inplace.CreateDataset(path, d.storeRows, d.storeFields, elem, inplace.DatasetOptions{
				ChunkRows: d.storeChunk, Workers: w, Label: "micro",
			})
			if err != nil {
				panic(err)
			}
			if err := wr.Ingest(newByteReader(aos)); err != nil {
				panic(err)
			}
			wr.Close()
			ds, err = inplace.OpenDataset(path, inplace.DatasetOptions{Workers: w, Label: "micro"})
			if err != nil {
				panic(err)
			}
			cols := make([]int, d.storeProj)
			for i := range cols {
				cols[i] = (i * d.storeFields) / d.storeProj
			}
			dst := aosBuf(d.storeRows, d.storeProj, elem)
			return func() {
				if err := ds.Project(dst, cols, 0, d.storeRows); err != nil {
					panic(err)
				}
			}
		},
		Cleanup: func() {
			if ds != nil {
				ds.Close()
			}
			if dir != "" {
				os.RemoveAll(dir)
			}
		},
	}
}

// fillAoS writes a deterministic, position-dependent byte pattern
// (FillSeq is typed for word-sized elements; the store ingests bytes).
func fillAoS(b []byte) {
	for i := range b {
		b[i] = byte(uint32(i)*2654435761>>7 + uint32(i))
	}
}

// newByteReader is a minimal io.Reader over a byte slice (avoids
// importing bytes just for ingest plumbing).
func newByteReader(b []byte) *byteReader { return &byteReader{b: b} }

type byteReader struct {
	b []byte
	n int
}

func (r *byteReader) Read(p []byte) (int, error) {
	if r.n >= len(r.b) {
		return 0, os.ErrDeadlineExceeded // never reached: ingest reads exactly len(b)
	}
	n := copy(p, r.b[r.n:])
	r.n += n
	return n, nil
}
