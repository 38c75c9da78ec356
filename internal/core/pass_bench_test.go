package core

import (
	"fmt"
	"testing"
	"time"

	"inplace/internal/cr"
	"inplace/internal/parallel"
)

// passFamilies are the internal plans (m the smaller dimension) of the
// perfbench inmem families: the two 2D shapes, the two AoS record
// widths, and one 256×4096 slab of the NHWC↔NCHW permutation. The
// square t2d_gcd runs the swap sweep, so t2d_gcd_rect, a non-square
// plan with gcd(m, n) = 120, a = 24 and b = 25, keeps the pre-rotation
// and the stride-table row shuffle measured.
var passFamilies = []struct {
	name string
	m, n int
	elem int
}{
	{"t2d_coprime", 2797, 3000, 8},
	{"t2d_gcd", 2896, 2896, 8},
	{"t2d_gcd_rect", 2880, 3000, 8},
	{"aos_f4", 4, 4 << 20, 4},
	{"aos_f16", 16, 1 << 20, 4},
	{"perm_slab", 256, 4096, 4},
}

// BenchmarkEnginePasses times each pass of the engine on one worker, on
// the plans of passFamilies. A square plan has one pass, the swap sweep;
// any other plan runs the tiled pre-rotation and its inverse (plans with
// gcd(m, n) > 1 only), the row shuffle in both directions, and the tiled
// column shuffle and its inverse. Each pass is reported as "copies", its
// time over that of a same-size copy timed turn about with it, and "W",
// the derived tile width.
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
	data, dst := passBuffers[T](m * n)
	type pass struct {
		name string
		run  func()
	}
	var passes []pass
	switch {
	case eng.square:
		passes = append(passes, pass{"swap", func() { eng.swapPass(data, st) }})
	case !plan.Coprime:
		passes = append(passes,
			pass{"pre_rotate", func() { eng.tilePass(data, st, tilePreRotate) }},
			pass{"post_rotate", func() { eng.tilePass(data, st, tilePostRotate) }})
	}
	if !eng.square {
		passes = append(passes,
			pass{"row_c2r", func() { eng.shufflePass(data, st, true) }},
			pass{"row_r2c", func() { eng.shufflePass(data, st, false) }},
			pass{"col_shuffle", func() { eng.tilePass(data, st, tileShuffle) }},
			pass{"col_unshuffle", func() { eng.tilePass(data, st, tileShuffleInv) }})
	}
	for _, ps := range passes {
		b.Run(ps.name, func(b *testing.B) {
			timeAgainstCopy(b, ps.run, data, dst)
			b.ReportMetric(float64(eng.tileW), "W")
		})
	}
}

// BenchmarkSwapWidths sweeps the swap sweep's tile width B over 16, 32,
// 64, 128 and 256 on squares of 1-, 2-, 4- and 8-byte elements, at one
// worker and at two, against the derived width (B 0). Each case reports
// "copies" as BenchmarkEnginePasses does and "B", the width it ran.
//
//	go test -run '^$' -bench SwapWidths ./internal/core
func BenchmarkSwapWidths(b *testing.B) {
	for _, n := range []int{2896, 2048, 1024, 512} {
		for _, elem := range []int{1, 2, 4, 8} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%dx%d_e%d_w%d", n, n, elem, workers)
				b.Run(name, func(b *testing.B) {
					switch elem {
					case 1:
						benchSwapWidths[uint8](b, n, workers)
					case 2:
						benchSwapWidths[uint16](b, n, workers)
					case 4:
						benchSwapWidths[uint32](b, n, workers)
					default:
						benchSwapWidths[uint64](b, n, workers)
					}
				})
			}
		}
	}
}

func benchSwapWidths[T passElem](b *testing.B, n, workers int) {
	data, dst := passBuffers[T](n * n)
	for _, bw := range []int{0, 16, 32, 64, 128, 256} {
		o := Opts{Workers: workers, BlockW: bw}
		if workers > 1 {
			o.Pool = parallel.Shared()
		}
		eng := NewEngine[T](NewSchedule(cr.NewPlan(n, n), o))
		st := newExecState[T](eng.s)
		b.Run(fmt.Sprintf("B%d", bw), func(b *testing.B) {
			timeAgainstCopy(b, func() { eng.swapPass(data, st) }, data, dst)
			b.ReportMetric(float64(eng.tileW), "B")
		})
	}
}

// passElem is the element types the pass benchmarks run.
type passElem interface {
	uint8 | uint16 | uint32 | uint64
}

// passBuffers returns a size-element buffer of distinct values and a
// same-size copy destination.
func passBuffers[T passElem](size int) (data, dst []T) {
	data = make([]T, size)
	for i := range data {
		data[i] = T(i)
	}
	return data, make([]T, size)
}

// timeAgainstCopy times run b.N times, each turn followed by an untimed
// copy of data into dst that is timed on its own, and reports run's
// time over the copy's as "copies". One untimed run first grows the
// scratch and faults in the pages.
func timeAgainstCopy[T any](b *testing.B, run func(), data, dst []T) {
	run()
	copy(dst, data)
	var passT, copyT time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		run()
		passT += time.Since(t0)
		b.StopTimer()
		t0 = time.Now()
		copy(dst, data)
		copyT += time.Since(t0)
		b.StartTimer()
	}
	b.ReportMetric(float64(passT)/float64(copyT), "copies")
}
