package core

import (
	"fmt"
	"testing"
	"time"

	"inplace/internal/cr"
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

// BenchmarkEnginePasses times the engine on one worker, on the plans of
// passFamilies: each pass of its C2R list and then of its R2C list, and
// after each list the whole Run of that direction ("c2r", "r2c"). A
// square plan's lists are one swap sweep, timed once; any other plan's
// C2R list is the tiled pre-rotation (plans with gcd(m, n) > 1 only),
// the row shuffle and the tiled column shuffle, and its R2C list their
// inverses in reverse order. Each case is reported as "copies", its
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
	data, dst := passBuffers[T](m * n)
	seen := map[string]bool{}
	for _, c2r := range []bool{true, false} {
		eng := NewEngine[T](plan, Opts{Workers: 1}, c2r)
		st := newExecState(eng)
		for i := range eng.passes {
			ps := &eng.passes[i]
			if name := passName(ps); !seen[name] {
				seen[name] = true
				b.Run(name, func(b *testing.B) {
					timeAgainstCopy(b, func() { eng.run(data, st, ps) }, data, dst)
					b.ReportMetric(float64(eng.tileW), "W")
				})
			}
		}
		b.Run(map[bool]string{true: "c2r", false: "r2c"}[c2r], func(b *testing.B) {
			timeAgainstCopy(b, func() { eng.Run(data) }, data, dst)
			b.ReportMetric(float64(eng.tileW), "W")
		})
	}
}

// passName names a pass of an engine's list.
func passName(ps *pass) string {
	switch {
	case ps.kind == passSwap:
		return "swap"
	case ps.kind == passShuffle && ps.c2r:
		return "row_c2r"
	case ps.kind == passShuffle:
		return "row_r2c"
	}
	return [...]string{tilePreRotate: "pre_rotate", tilePostRotate: "post_rotate",
		tileShuffle: "col_shuffle", tileShuffleInv: "col_unshuffle"}[ps.mode]
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
		eng := NewEngine[T](cr.NewPlan(n, n), Opts{Workers: workers, BlockW: bw}, true)
		b.Run(fmt.Sprintf("B%d", bw), func(b *testing.B) {
			timeAgainstCopy(b, func() { eng.Run(data) }, data, dst)
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
