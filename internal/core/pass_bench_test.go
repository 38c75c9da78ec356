package core

import (
	"testing"
	"time"

	"inplace/internal/cr"
)

// passFamilies are the internal plans (m the smaller dimension) of the
// perfbench inmem families: the two 2D shapes, the two AoS record
// widths, and one 256×4096 slab of the NHWC↔NCHW permutation.
var passFamilies = []struct {
	name string
	m, n int
	elem int
}{
	{"t2d_coprime", 2797, 3000, 8},
	{"t2d_gcd", 2896, 2896, 8},
	{"aos_f4", 4, 4 << 20, 4},
	{"aos_f16", 16, 1 << 20, 4},
	{"perm_slab", 256, 4096, 4},
}

// BenchmarkEnginePasses times each pass of the engine on one worker, on
// the plans of passFamilies: the tiled pre-rotation and its inverse
// (plans with gcd(m, n) > 1 only), the row shuffle in both directions,
// and the tiled column shuffle and its inverse. Each pass is reported as
// "copies", its time over that of a same-size copy timed turn about with
// it, and "W", the derived tile width.
//
//	go test -run '^$' -bench EnginePasses ./internal/core
func BenchmarkEnginePasses(b *testing.B) {
	for _, f := range passFamilies {
		b.Run(f.name, func(b *testing.B) {
			if f.elem == 8 {
				benchPasses[uint64](b, f.m, f.n)
			} else {
				benchPasses[uint32](b, f.m, f.n)
			}
		})
	}
}

func benchPasses[T uint32 | uint64](b *testing.B, m, n int) {
	plan := cr.NewPlan(m, n)
	eng := NewEngine[T](NewSchedule(plan, Opts{Workers: 1}))
	st := newExecState[T](eng.s)
	data := make([]T, m*n)
	for i := range data {
		data[i] = T(i)
	}
	dst := make([]T, m*n)
	type pass struct {
		name string
		run  func()
	}
	var passes []pass
	if !plan.Coprime {
		passes = append(passes,
			pass{"pre_rotate", func() { eng.tilePass(data, st, tilePreRotate) }},
			pass{"post_rotate", func() { eng.tilePass(data, st, tilePostRotate) }})
	}
	passes = append(passes,
		pass{"row_c2r", func() { eng.shufflePass(data, st, true) }},
		pass{"row_r2c", func() { eng.shufflePass(data, st, false) }},
		pass{"col_shuffle", func() { eng.tilePass(data, st, tileShuffle) }},
		pass{"col_unshuffle", func() { eng.tilePass(data, st, tileShuffleInv) }})
	for _, ps := range passes {
		b.Run(ps.name, func(b *testing.B) {
			ps.run() // grow the scratch and fault in the pages
			copy(dst, data)
			var passT, copyT time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				ps.run()
				passT += time.Since(t0)
				b.StopTimer()
				t0 = time.Now()
				copy(dst, data)
				copyT += time.Since(t0)
				b.StartTimer()
			}
			b.ReportMetric(float64(passT)/float64(copyT), "copies")
			b.ReportMetric(float64(eng.tileW), "W")
		})
	}
}
