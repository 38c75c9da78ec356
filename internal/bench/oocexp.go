package bench

import (
	"fmt"
	"os"
	"strings"

	"inplace"
)

func init() {
	Register(Experiment{
		ID: "ooc", Title: "out-of-core engine budget sweep on a temp file",
		Axes: []string{"budget_bytes"}, Unit: "GB/s", Series: []string{"ooc"},
		Run: OOC,
	})
}

// memFile is a fixed-size in-memory Storage for the micro suite: it
// isolates the engine's scheduling and kernel cost from disk noise.
type memFile struct{ b []byte }

func (m *memFile) ReadAt(p []byte, off int64) (int, error)  { return copy(p, m.b[off:]), nil }
func (m *memFile) WriteAt(p []byte, off int64) (int, error) { return copy(m.b[off:], p), nil }

// oocShape returns the matrix measured by the ooc experiment at each
// scale (8-byte elements).
func oocShape(s Scale) (rows, cols int) {
	switch s {
	case TinyScale:
		return 128, 96
	case SmallScale:
		return 1024, 768
	case LargeScale:
		return 4096, 3072
	default: // PaperScale
		return 8192, 6144
	}
}

// OOC measures the out-of-core engine's budget sensitivity: one matrix,
// transposed in place on a temp file under a sweep of scratch budgets
// from a small fraction of the file up to fully in core, with the
// in-memory engine on the same shape as the ceiling. Reported per
// budget: effective data throughput (bytes moved across the backend per
// wall second), backend call count after write-combining, and the
// prefetch hit rate of the pipeline.
func OOC(cfg Config) []Result {
	const elem = 8
	rows, cols := oocShape(cfg.Scale)
	fileBytes := int64(rows) * int64(cols) * elem

	f, err := os.CreateTemp("", "bench-ooc-*")
	if err != nil {
		panic(err)
	}
	defer os.Remove(f.Name())
	defer f.Close()

	data := gridBuf[uint64](rows, cols)
	FillSeq(data)
	raw := make([]byte, fileBytes)
	for i, v := range data {
		for b := 0; b < 8; b++ {
			raw[i*8+b] = byte(v >> (8 * b))
		}
	}
	if _, err := f.WriteAt(raw, 0); err != nil {
		panic(err)
	}

	// In-memory ceiling on the same shape.
	dMem := Time(func() {
		mustTranspose(data, rows, cols, inplace.Options{Workers: cfg.Workers})
	})
	memGBps := ThroughputGBps(rows, cols, elem, dMem)

	type point struct {
		label  string
		budget int64
	}
	sweep := []point{
		{"1/64 file", fileBytes / 64},
		{"1/16 file", fileBytes / 16},
		{"1/4 file", fileBytes / 4},
		{"in core", 2 * fileBytes},
	}

	var b strings.Builder
	fmt.Fprintf(&b, "OOC: out-of-core transposition, %dx%d (%d-byte elements, %.1f MiB file), %d workers\n",
		rows, cols, elem, float64(fileBytes)/(1<<20), cfg.workers())
	fmt.Fprintf(&b, "  %-12s %12s %12s %12s %12s\n", "budget", "bytes", "GB/s", "backend ops", "prefetch hit")

	var csvRows [][]float64
	shape := rows // alternates with cols as the file flips orientation
	other := cols
	for _, p := range sweep {
		floor, err := inplace.OOCMinBudget(shape, other, elem)
		if err != nil {
			panic(err)
		}
		budget := p.budget
		if budget < floor {
			budget = floor
		}
		var st inplace.OOCStats
		d := Time(func() {
			st, err = inplace.TransposeFile(f, shape, other, elem, inplace.OOCOptions{
				Budget: budget, Workers: cfg.Workers,
			})
			if err != nil {
				panic(err)
			}
		})
		// The file now holds the transpose; the next sweep point
		// transposes it back.
		shape, other = other, shape

		secs := d.Seconds()
		if secs <= 0 {
			secs = 1e-9
		}
		gbps := float64(st.BytesRead+st.BytesWritten) / secs / 1e9
		ops := st.ReadOps + st.WriteOps
		hitRate := 1.0
		if tot := st.PrefetchHits + st.PrefetchMisses; tot > 0 {
			hitRate = float64(st.PrefetchHits) / float64(tot)
		}
		fmt.Fprintf(&b, "  %-12s %12d %12.2f %12d %11.0f%%\n", p.label, budget, gbps, ops, hitRate*100)
		csvRows = append(csvRows, []float64{float64(budget), gbps, float64(ops), hitRate})
	}
	fmt.Fprintf(&b, "  %-12s %12d %12.2f %12s %12s\n", "in-memory", fileBytes, memGBps, "-", "-")

	return []Result{{
		Name: "ooc",
		Text: b.String(),
		CSV:  CSV([]string{"budget_bytes", "gbps", "backend_ops", "prefetch_hit_rate"}, csvRows),
	}}
}
