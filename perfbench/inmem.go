package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"inplace"
	"inplace/internal/core"
	"inplace/internal/cr"
	"inplace/internal/stats"
)

// inmem is the in-memory engine workload: a seeded stream of fixed
// 64 MiB ops on warm planners with two workers —
//
//   - 2D TransposeWith on the coprime 3000×2797 and the shared-gcd
//     2896×2896 shapes, in both orientations (with two workers the first
//     speeds up about 2× and the square about 1×);
//   - AOSToSOA/SOAToAOS on float32 records 4 and 16 fields wide;
//   - rank-4 NHWC↔NCHW PermuteAxes on 16×64×64×256.
//
// Chosen because the engine passes and the worker pool do nearly all the
// work here: no I/O, no network, and planning is amortized. Every op
// moves 64 MiB, far past the private caches, where op-to-op spread stays
// at a few percent (1.2 GiB transposes spread ±25%).

// inmemWorkers is the worker count of the stream: one per core here,
// and the load never exceeds it.
const inmemWorkers = 2

// replayRounds is how often the traced run replays each C2R-planned
// shape pass by pass.
const replayRounds = 3

// inmemWarmup is how long the stream runs untimed before measuring.
const inmemWarmup = 2 * time.Second

// family is one op type of the stream. Its buffer is permuted in place
// and flips between the source layout and the permuted one, so each op
// is the input of the next op of the family, in the other orientation.
type family struct {
	name    string
	layer   string // the layer whose entry point the op calls
	bytes   int
	flipped bool
	op      func(workers int) error // one op on the current layout; flips it
	check   func() bool             // the oracle for the current layout
	plan    func(workers int) error // fills the plan caches for both layouts
	build   func() (int, error)     // builds fresh planners for both layouts

	// 2D families only: the matrix and the shape of the next op.
	buf64 []uint64
	dims  func() (rows, cols int)

	// Permute families only: factored passes per permutation.
	passes float64
}

func (f *family) class() string {
	if f.flipped {
		return f.name + "/back"
	}
	return f.name + "/fwd"
}

func inmemFamilies(seed int64) ([]*family, error) {
	rng := rand.New(rand.NewSource(seed))
	base := func() uint64 { return uint64(rng.Int63()) }
	var fams []*family
	for _, mk := range []func() (*family, error){
		func() (*family, error) { return newT2D("t2d_coprime", 3000, 2797, base()) },
		func() (*family, error) { return newT2D("t2d_gcd", 2896, 2896, base()) },
		func() (*family, error) { return newAoS("aos_f4", 1<<22, 4, base()) },
		func() (*family, error) { return newAoS("aos_f16", 1<<20, 16, base()) },
		func() (*family, error) { return newPerm("perm_nhwc", 16, 64, 64, 256, base()) },
	} {
		f, err := mk()
		if err != nil {
			return nil, err
		}
		fams = append(fams, f)
	}
	return fams, nil
}

func newT2D(name string, rows, cols int, base uint64) (*family, error) {
	n, err := elems(rows, cols)
	if err != nil {
		return nil, err
	}
	buf := make([]uint64, n)
	fillPattern(buf, base, mask64)
	f := &family{name: name, layer: "inplace", bytes: 8 * n, buf64: buf}
	f.dims = func() (int, int) {
		if f.flipped {
			return cols, rows
		}
		return rows, cols
	}
	f.op = func(w int) error {
		r, c := f.dims()
		if err := inplace.TransposeWith(buf, r, c, inplace.Options{Workers: w}); err != nil {
			return err
		}
		f.flipped = !f.flipped
		return nil
	}
	f.check = func() bool { return checkMatrix(buf, rows, cols, f.flipped, base, mask64) }
	f.plan = func(w int) error {
		return warmPlans(rows, cols, func(r, c int) error {
			return inplace.TransposeWith(buf[:0], r, c, inplace.Options{Workers: w})
		})
	}
	f.build = func() (int, error) {
		return 2, buildBoth(rows, cols, func(r, c int) error {
			_, err := inplace.NewPlanner[uint64](r, c, inplace.Options{Workers: inmemWorkers})
			return err
		})
	}
	return f, nil
}

func newAoS(name string, count, fields int, base uint64) (*family, error) {
	n, err := elems(count, fields)
	if err != nil {
		return nil, err
	}
	buf := make([]float32, n)
	fillPattern(buf, base, mask24)
	f := &family{name: name, layer: "inplace", bytes: 4 * n}
	f.op = func(w int) error {
		conv := inplace.AOSToSOA[float32]
		if f.flipped {
			conv = inplace.SOAToAOS[float32]
		}
		if err := conv(buf, count, fields, inplace.Options{Workers: w}); err != nil {
			return err
		}
		f.flipped = !f.flipped
		return nil
	}
	f.check = func() bool { return checkMatrix(buf, count, fields, f.flipped, base, mask24) }
	f.plan = func(w int) error {
		return warmPlans(count, fields, func(r, c int) error {
			return inplace.TransposeWith(buf[:0], r, c, inplace.Options{Workers: w})
		})
	}
	f.build = func() (int, error) {
		return 2, buildBoth(count, fields, func(r, c int) error {
			_, err := inplace.NewPlanner[float32](r, c, inplace.Options{Workers: inmemWorkers})
			return err
		})
	}
	return f, nil
}

func newPerm(name string, n, h, w, c int, base uint64) (*family, error) {
	size, err := elems(n, h, w, c)
	if err != nil {
		return nil, err
	}
	buf := make([]float32, size)
	fillPattern(buf, base, mask24)
	perms := [2]struct{ dims, perm []int }{
		{[]int{n, h, w, c}, []int{0, 3, 1, 2}}, // NHWC → NCHW
		{[]int{n, c, h, w}, []int{0, 2, 3, 1}}, // NCHW → NHWC
	}
	f := &family{name: name, layer: "tensor", bytes: 4 * size}
	f.op = func(wk int) error {
		p := perms[0]
		if f.flipped {
			p = perms[1]
		}
		if err := inplace.PermuteAxes(buf, p.dims, p.perm, inplace.Options{Workers: wk}); err != nil {
			return err
		}
		f.flipped = !f.flipped
		return nil
	}
	f.check = func() bool {
		if f.flipped {
			return checkNCHW(buf, n, h, w, c, base, mask24)
		}
		return checkMatrix(buf, size, 1, false, base, mask24)
	}
	f.plan = func(wk int) error {
		for _, p := range perms {
			if err := inplace.PermuteAxes(buf[:0], p.dims, p.perm, inplace.Options{Workers: wk}); !errors.Is(err, inplace.ErrLength) {
				return fmt.Errorf("planning %v perm %v: got %v, want ErrLength", p.dims, p.perm, err)
			}
		}
		return nil
	}
	f.build = func() (int, error) {
		var passes int
		for _, p := range perms {
			pl, err := inplace.NewPermutePlanner[float32](p.dims, p.perm, inplace.Options{Workers: inmemWorkers})
			if err != nil {
				return 0, err
			}
			passes += pl.Plan().Passes()
		}
		f.passes = float64(passes) / float64(len(perms))
		return len(perms), nil
	}
	return f, nil
}

// warmPlans fills the plan cache for a rows×cols op and its inverse by
// calling the entry point with an empty buffer: the cached plan is built
// before the length check rejects the call.
func warmPlans(rows, cols int, call func(r, c int) error) error {
	for _, s := range [2][2]int{{rows, cols}, {cols, rows}} {
		if err := call(s[0], s[1]); !errors.Is(err, inplace.ErrLength) {
			return fmt.Errorf("planning %dx%d: got %v, want ErrLength", s[0], s[1], err)
		}
	}
	return nil
}

func buildBoth(rows, cols int, build func(r, c int) error) error {
	if err := build(rows, cols); err != nil {
		return err
	}
	return build(cols, rows)
}

func runInmem(cfg *config, rep *report, tr *tracer) error {
	fams, err := inmemFamilies(cfg.seed)
	if err != nil {
		return err
	}
	// Set-up is plan construction into the planner caches. ClearWisdom
	// flushes them between rounds; the wisdom table itself stays empty.
	setup, err := timeSetup(setupRounds, func() error {
		for _, f := range fams {
			if err := f.plan(inmemWorkers); err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		inplace.ClearWisdom()
		return nil
	})
	if err != nil {
		return err
	}
	// Run the stream untimed first, so lazily built state (row-permutation
	// cycles, scratch arenas, the worker pool) exists and freshly faulted
	// memory has settled: a process's first seconds run measurably slower.
	rep.count(inmemStream(fams, cfg.seed, inmemWarmup, nil))

	if tr == nil {
		peak := startPeakRSS(rep)
		l := inmemStream(fams, cfg.seed, cfg.seconds, nil)
		rss := peak()
		rep.count(l)
		recordEndToEnd(rep, cfg, l, false, setup, rss)
		return nil
	}
	return inmemLayers(cfg, rep, tr, fams)
}

// inmemStream runs blocks of one op per family, each block in a seeded
// order, until d has passed. Whole blocks keep the mix balanced.
func inmemStream(fams []*family, seed int64, d time.Duration, tr *tracer) *opLog {
	rng := rand.New(rand.NewSource(seed))
	l := newOpLog()
	start := time.Now()
	l.begin(start, d)
	for time.Since(start) < d {
		for _, i := range rng.Perm(len(fams)) {
			runOp(fams[i], inmemWorkers, l, tr)
		}
		l.tick(time.Now())
	}
	l.finish(time.Now())
	return l
}

// runOp times one op of f and checks its output.
func runOp(f *family, workers int, l *opLog, tr *tracer) {
	class := f.class()
	if workers != inmemWorkers {
		class = fmt.Sprintf("%s/w%d", class, workers)
	}
	id := tr.begin(f.layer, class, -1)
	t0 := time.Now()
	err := f.op(workers)
	d := time.Since(t0)
	tr.end(id)
	l.record(class, d, f.bytes, err, err == nil && f.check())
}

// inmemLayers is the traced run: an untraced half as the reference, a
// traced half of the same stream, then the pass replay, the one-worker
// baseline and plan construction.
func inmemLayers(cfg *config, rep *report, tr *tracer, fams []*family) error {
	half := cfg.seconds / 2
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ref := inmemStream(fams, cfg.seed, half, nil)
	runtime.ReadMemStats(&m1)
	rep.count(ref)
	recordRuntime(rep, &m0, &m1, len(ref.lat))

	c0 := readCacheCounts()
	traced := inmemStream(fams, cfg.seed, half, tr)
	recordCache(rep, c0, readCacheCounts())
	rep.count(traced)
	rep.set("trace.overhead_ratio", "ratio", gbps(traced.bytes, traced.busy)/gbps(ref.bytes, ref.busy))
	rep.set("core.gbps_coprime", "GB/s", traced.gbpsOf("t2d_coprime/"))
	rep.set("core.gbps_gcd", "GB/s", traced.gbpsOf("t2d_gcd/"))
	rep.set("aos.gbps", "GB/s", traced.gbpsOf("aos_"))
	rep.set("tensor.gbps", "GB/s", traced.gbpsOf("perm_"))

	extra := newOpLog()
	defer rep.count(extra)
	if err := replayPasses(fams, ref, tr, extra, rep); err != nil {
		return err
	}
	if err := parallelEfficiency(fams, ref, tr, extra, rep); err != nil {
		return err
	}
	return planBuild(fams, rep)
}

// replayPasses replays each C2R-planned 2D op pass by pass through the
// core entry points — with the schedule's default block width and the
// stream's worker count, since zero would divide by zero — checks that
// the composed result is the transpose, and reports the mean time of
// each pass. core.c2r_op_ms is the mean untraced median op time of the
// replayed orientations and core.unattributed_ms that minus the pass
// times, so the five add up to core.c2r_op_ms.
func replayPasses(fams []*family, ref *opLog, tr *tracer, l *opLog, rep *report) error {
	var pre, row, rot, prm, op, touches []float64
	for _, f := range fams {
		if f.buf64 == nil {
			continue
		}
		for r := 0; r < replayRounds; r++ {
			if !usesC2R(f.dims()) {
				runOp(f, inmemWorkers, l, nil) // flip to the C2R-planned orientation
			}
			rows, cols := f.dims()
			if !usesC2R(rows, cols) {
				return fmt.Errorf("%s: neither orientation is C2R-planned", f.name)
			}
			class := f.class()
			p := cr.NewPlan(rows, cols)
			parent := tr.begin("core", class+"/replay", -1)
			pass := func(name string, run func()) float64 {
				id := tr.begin("core", name, parent)
				t0 := time.Now()
				run()
				d := time.Since(t0)
				tr.end(id)
				return ms(d)
			}
			t0 := time.Now()
			if p.Coprime {
				pre = append(pre, 0)
			} else {
				pre = append(pre, pass("pre_rotate", func() { core.PassRotatePre(f.buf64, p, core.DefaultBlockW, inmemWorkers) }))
			}
			row = append(row, pass("row_shuffle", func() { core.PassRowShuffle(f.buf64, p, inmemWorkers) }))
			rot = append(rot, pass("col_rotate", func() { core.PassRotateP(f.buf64, p, core.DefaultBlockW, inmemWorkers) }))
			prm = append(prm, pass("row_permute", func() { core.PassRowPermute(f.buf64, p, core.DefaultBlockW, inmemWorkers) }))
			d := time.Since(t0)
			tr.end(parent)
			f.flipped = !f.flipped
			l.record(class+"/replay", d, f.bytes, nil, f.check())
			op = append(op, ref.medianOf(class))
			touches = append(touches, touchesPerElem(p))
		}
	}
	mPre, mRow, mRot, mPrm, mOp := stats.Mean(pre), stats.Mean(row), stats.Mean(rot), stats.Mean(prm), stats.Mean(op)
	rep.set("core.pre_rotate_ms", "ms", mPre)
	rep.set("core.row_shuffle_ms", "ms", mRow)
	rep.set("core.col_rotate_ms", "ms", mRot)
	rep.set("core.row_permute_ms", "ms", mPrm)
	rep.set("core.c2r_op_ms", "ms", mOp)
	rep.set("core.unattributed_ms", "ms", mOp-mPre-mRow-mRot-mPrm)
	rep.set("core.touches_per_elem", "count", stats.Mean(touches))
	rep.notef("core.touches_per_elem is computed from the pass structure; the paper's bound is 6")
	return nil
}

func usesC2R(rows, cols int) bool {
	p, err := inplace.NewPlan(rows, cols, inplace.Options{})
	return err == nil && p.UsesC2R()
}

// touchesPerElem is the reads plus writes per element of the cache-aware
// C2R pipeline, computed from its pass structure: each pass reads and
// writes every element once, the column shuffle runs as two passes
// (rotation, then row permutation), and the pre-rotation runs only when
// gcd(rows, cols) > 1.
func touchesPerElem(p *cr.Plan) float64 {
	passes := 3
	if !p.Coprime {
		passes = 4
	}
	return float64(2 * passes)
}

// parallelEfficiency repeats every family at Workers: 1, one op per
// orientation, against the untraced two-worker medians of the same
// orientations: efficiency = T(1 worker) ÷ (2 · T(2 workers)).
func parallelEfficiency(fams []*family, ref *opLog, tr *tracer, l *opLog, rep *report) error {
	var all1, all2 float64
	for _, f := range fams {
		if err := f.plan(1); err != nil {
			return err
		}
		var t1, t2 float64
		for i := 0; i < 2; i++ {
			t2 += ref.medianOf(f.class())
			before := len(l.lat)
			runOp(f, 1, l, tr)
			if len(l.lat) == before {
				return fmt.Errorf("%s: one-worker op failed", f.name)
			}
			t1 += l.lat[len(l.lat)-1]
		}
		rep.set("parallel.efficiency_"+f.name, "ratio", t1/(2*t2))
		all1 += t1
		all2 += t2
	}
	rep.set("parallel.efficiency", "ratio", all1/(2*all2))
	return nil
}

// planBuild times NewPlanner/NewPermutePlanner for every family's two
// layouts and reports the median round's mean per planner.
func planBuild(fams []*family, rep *report) error {
	xs := make([]float64, 0, setupRounds)
	for r := 0; r < setupRounds; r++ {
		n := 0
		t0 := time.Now()
		for _, f := range fams {
			k, err := f.build()
			if err != nil {
				return err
			}
			n += k
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3/float64(n))
	}
	rep.set("inplace.plan_build_us", "us", stats.Median(xs))
	for _, f := range fams {
		if f.passes > 0 {
			rep.set("tensor.passes_per_permute", "count", f.passes)
		}
	}
	return nil
}
