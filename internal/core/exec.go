package core

import (
	"fmt"
	"unsafe"

	"inplace/internal/arena"
	"inplace/internal/cr"
	"inplace/internal/mathutil"
	"inplace/internal/parallel"
)

// Engine binds a Schedule to an element type: it owns the recycled
// scratch states and the prebuilt band-sweep row functions, and executes
// the C2R/R2C pipelines with zero steady-state allocations. One Engine
// may execute concurrently on distinct buffers; each execution draws a
// private state from the arena.
type Engine[T any] struct {
	s      *Schedule
	states *arena.Pool[execState[T]]

	// Tile geometry of the cache-aware column passes, which depends on
	// the element size: the tile width, the chunk partition over the
	// ⌈n/tileW⌉ column tiles, and the m·tileW elements a tile takes in
	// its worker's scratch buffer (see ScratchBytes).
	tileW       int
	boundsTiles []int
	tileLen     int

	// Row-shuffle kernel of the cache-aware pipeline (rowshuffle.go),
	// chosen from the shape: its kind, the interleave block in elements
	// per stream, and the R2C stride-table step c·(a mod b).
	row     rowKind
	rowBlk  int
	tabStep int

	// Skinny band-sweep row producers, built once per engine so
	// executions do not re-capture the plan constants.
	c2r1, c2r2, r2c2, r2c3 bandRowFunc[T]

	// Kernel func values, materialized once: instantiating a generic
	// function value inside a generic method builds a dictionary-bound
	// funcval on the heap per use, which would break the zero-allocation
	// steady state.
	kRotate       func([]T, int, int, func(int) int, mathutil.Divider, []T, int, int)
	kPermuteNaive func([]T, int, int, func(int) int, []T, int, int)
	kColShuffle   func([]T, *cr.Plan, []T, int, int)
	kRowScatter   func([]T, *cr.Plan, []T, int, int)
	kRowGather    func([]T, *cr.Plan, []T, int, int)
	kRowGatherD   func([]T, *cr.Plan, []T, int, int)
}

// NewEngine builds the typed half of an execution plan.
func NewEngine[T any](s *Schedule) *Engine[T] {
	e := &Engine[T]{s: s}
	e.states = arena.NewPool(func() *execState[T] { return newExecState[T](s) })
	var zero T
	es := int(unsafe.Sizeof(zero))
	p := s.Plan
	m, n := p.M, p.N
	e.tileW = TileWidth(m, n, es, s.Opts.BlockW)
	e.boundsTiles = parallel.Bounds((n+e.tileW-1)/e.tileW, s.workers, 1)
	var ok bool
	if e.tileLen, ok = mathutil.CheckedMul(m, e.tileW); !ok {
		panic("core: m×tile width overflows int") // unreachable: tileW <= n and m·n fits
	}
	e.row = rowKindOf(p.A, p.B, n)
	e.rowBlk = interleaveBlock(p.C, p.B, es)
	e.tabStep = p.C * p.DivB().Mod(p.A)
	if s.Opts.Variant == Skinny && s.skinnyOK {
		e.c2r1 = skinnyC2RPass1[T](s.Plan)
		e.c2r2 = skinnyC2RPass2[T](s.Plan)
		e.r2c2 = skinnyR2CPass2[T](s.Plan)
		e.r2c3 = skinnyR2CPass3[T](s.Plan)
	}
	e.kRotate = rotateColumnsGatherRange[T]
	e.kPermuteNaive = rowPermuteGatherNaiveRange[T]
	e.kColShuffle = columnShuffleGatherRange[T]
	e.kRowScatter = rowShuffleScatterRange[T]
	e.kRowGather = rowShuffleGatherRange[T]
	e.kRowGatherD = rowShuffleGatherDRange[T]
	return e
}

// Schedule returns the shared untyped half of the plan.
func (e *Engine[T]) Schedule() *Schedule { return e.s }

// badLenMsg builds the buffer-length panic message. Kept out of line so
// the hot entry points contain no fmt machinery.
func badLenMsg(op string, n int, p *cr.Plan) string {
	return fmt.Sprintf("core: %s buffer length %d does not match %v", op, n, p)
}

// C2R performs the in-place C2R transposition of the flat row-major
// m×n array described by the schedule's plan (see the package-level C2R).
//
//xpose:hotpath
func (e *Engine[T]) C2R(data []T) {
	if len(data) != e.s.Plan.Size {
		panic(badLenMsg("C2R", len(data), e.s.Plan))
	}
	st := e.states.Get()
	defer e.states.Put(st)
	e.c2r(data, st)
}

// R2C performs the in-place R2C transposition, the exact inverse of C2R.
//
//xpose:hotpath
func (e *Engine[T]) R2C(data []T) {
	if len(data) != e.s.Plan.Size {
		panic(badLenMsg("R2C", len(data), e.s.Plan))
	}
	st := e.states.Get()
	defer e.states.Put(st)
	e.r2c(data, st)
}

// c2r runs the variant's C2R pipeline with the scratch state st.
//
//xpose:hotpath
func (e *Engine[T]) c2r(data []T, st *execState[T]) {
	switch e.s.Opts.Variant {
	case Scatter:
		e.c2rScatter(data, st)
	case Gather:
		e.c2rGather(data, st)
	case CacheAware:
		e.c2rCacheAware(data, st)
	case Skinny:
		e.c2rSkinny(data, st)
	default:
		panic("core: unknown variant " + e.s.Opts.Variant.String())
	}
}

// r2c runs the variant's R2C pipeline with the scratch state st.
//
//xpose:hotpath
func (e *Engine[T]) r2c(data []T, st *execState[T]) {
	switch e.s.Opts.Variant {
	case Scatter:
		e.r2cScatter(data, st)
	case Gather:
		e.r2cGather(data, st)
	case CacheAware:
		e.r2cCacheAware(data, st)
	case Skinny:
		e.r2cSkinny(data, st)
	default:
		panic("core: unknown variant " + e.s.Opts.Variant.String())
	}
}

// --- Pipelines (the pass compositions previously hard-wired into the
// one-shot entry points) ---

// c2rScatter is Algorithm 1: pre-rotate (if gcd > 1), scatter row
// shuffle, gather column shuffle.
func (e *Engine[T]) c2rScatter(data []T, st *execState[T]) {
	if !e.s.Plan.Coprime {
		e.rotatePass(data, st, e.s.rotFn)
	}
	e.rowPass(data, st, e.kRowScatter)
	e.colPass(data, st, e.kColShuffle)
}

// c2rGather is the gather-only formulation (§5.1): the row shuffle uses
// the closed-form inverse d'^{-1} so every pass is a gather.
func (e *Engine[T]) c2rGather(data []T, st *execState[T]) {
	if !e.s.Plan.Coprime {
		e.rotatePass(data, st, e.s.rotFn)
	}
	e.rowPass(data, st, e.kRowGather)
	e.colPass(data, st, e.kColShuffle)
}

// r2cScatter inverts Algorithm 1 pass by pass: the column shuffle
// s' = p∘q inverts as a q^{-1} row permute followed by a p^{-1} rotation,
// the row shuffle inverts as a gather with d', and the pre-rotation
// inverts as a gather with r^{-1} (§4.3).
func (e *Engine[T]) r2cScatter(data []T, st *execState[T]) {
	e.colFnPass(data, st, e.kPermuteNaive, e.s.qInvFn)
	e.rotatePass(data, st, e.s.negIDFn)
	e.rowPass(data, st, e.kRowGatherD)
	if !e.s.Plan.Coprime {
		e.rotatePass(data, st, e.s.negRotFn)
	}
}

// r2cGather matches r2cScatter; the R2C direction is naturally
// gather-only (§4.3), so the two variants coincide structurally.
func (e *Engine[T]) r2cGather(data []T, st *execState[T]) {
	e.r2cScatter(data, st)
}

// c2rCacheAware composes the C2R transpose from three sweeps: the tiled
// pre-rotation (only when gcd(m,n) > 1), the row shuffle of
// rowshuffle.go, and the tiled column shuffle s'_j = p_j∘q fused into
// one gather (Equations 23, 24, 26, 32–33).
func (e *Engine[T]) c2rCacheAware(data []T, st *execState[T]) {
	if !e.s.Plan.Coprime {
		e.tilePass(data, st, tilePreRotate)
	}
	e.shufflePass(data, st, true)
	e.tilePass(data, st, tileShuffle)
}

// r2cCacheAware inverts the cache-aware C2R sweep by sweep (§4.3).
func (e *Engine[T]) r2cCacheAware(data []T, st *execState[T]) {
	e.tilePass(data, st, tileShuffleInv)
	e.shufflePass(data, st, false)
	if !e.s.Plan.Coprime {
		e.tilePass(data, st, tilePostRotate)
	}
}

// c2rSkinny performs the C2R transpose with the skinny pass structure
// (§6.1): fused pre-rotation + row shuffle, the p_j rotation, then the
// whole-row permutation q — the first two as forward band sweeps.
func (e *Engine[T]) c2rSkinny(data []T, st *execState[T]) {
	if !e.s.skinnyOK {
		e.c2rCacheAware(data, st)
		return
	}
	e.bandSweep(data, st, true, e.s.bandPre, e.s.boundsBandPre, st.savedPre, e.c2r1)
	e.bandSweep(data, st, true, e.s.bandRot, e.s.boundsBandRot, st.savedRot, e.c2r2)
	e.rowPermute(data, st, e.s.qCycles())
}

// r2cSkinny inverts c2rSkinny pass by pass with backward band sweeps.
func (e *Engine[T]) r2cSkinny(data []T, st *execState[T]) {
	if !e.s.skinnyOK {
		e.r2cCacheAware(data, st)
		return
	}
	e.rowPermute(data, st, e.s.qInvCycles())
	e.bandSweep(data, st, false, e.s.bandRot, e.s.boundsBandRot, st.savedRot, e.r2c2)
	e.bandSweep(data, st, false, e.s.bandPre, e.s.boundsBandPre, st.savedPre, e.r2c3)
}

// --- Pass drivers ---
//
// Each driver runs a range kernel over a precomputed chunk partition.
// The single-chunk case calls the kernel directly: no closure is built,
// which together with the arena-backed frames makes sequential
// executions allocation-free in steady state. Multi-chunk dispatch goes
// through the schedule (persistent pool or spawned goroutines); the
// chunk index doubles as the scratch frame index.

// rowPass runs a row-shuffle kernel over all M rows with the worker's
// n-element scratch buffer.
func (e *Engine[T]) rowPass(data []T, st *execState[T], kern func([]T, *cr.Plan, []T, int, int)) {
	s := e.s
	n := s.Plan.N
	bounds := s.boundsM
	if len(bounds) == 2 {
		kern(data, s.Plan, st.frames[0].elems(n), bounds[0], bounds[1])
		return
	}
	s.dispatch(bounds, func(w, lo, hi int) {
		kern(data, s.Plan, st.frames[w].elems(n), lo, hi)
	})
}

// shufflePass runs the cache-aware row shuffle, C2R or R2C, over all M
// rows.
func (e *Engine[T]) shufflePass(data []T, st *execState[T], c2r bool) {
	s := e.s
	bounds := s.boundsM
	if len(bounds) == 2 {
		e.shuffleRows(data, &st.frames[0], c2r, bounds[0], bounds[1])
		return
	}
	s.dispatch(bounds, func(w, lo, hi int) {
		e.shuffleRows(data, &st.frames[w], c2r, lo, hi)
	})
}

// shuffleRows runs the row shuffle of rows [lo, hi) with the kernel the
// plan's shape selects and the scratch of frame fr: the n-element row
// copy and, for the table kernels, the 2b-entry stride table, filled
// here on every execution.
//
//xpose:hotpath
func (e *Engine[T]) shuffleRows(data []T, fr *frame[T], c2r bool, lo, hi int) {
	p := e.s.Plan
	tmp := fr.elems(p.N)
	switch e.row {
	case rowRotate:
		rotateRows(data, p, c2r, tmp, lo, hi)
	case rowInterleave:
		interleaveRows(data, p, c2r, e.rowBlk, tmp, lo, hi)
	case rowTable:
		tab := fr.table(2 * p.B)
		if c2r {
			fillStrideTable(tab, p.AInvB, p.B)
		} else {
			fillStrideTable(tab, e.tabStep, p.N)
		}
		tableRows(data, p, c2r, tab, tmp, lo, hi)
	default:
		if c2r {
			rowShuffleScatterRange(data, p, tmp, lo, hi)
		} else {
			rowShuffleGatherDRange(data, p, tmp, lo, hi)
		}
	}
}

// colPass runs a column kernel over all N columns with m-element
// scratch.
func (e *Engine[T]) colPass(data []T, st *execState[T], kern func([]T, *cr.Plan, []T, int, int)) {
	s := e.s
	bounds := s.boundsN
	if len(bounds) == 2 {
		kern(data, s.Plan, st.frames[0].elems(s.Plan.M), bounds[0], bounds[1])
		return
	}
	s.dispatch(bounds, func(w, lo, hi int) {
		kern(data, s.Plan, st.frames[w].elems(s.Plan.M), lo, hi)
	})
}

// colFnPass runs a column kernel parameterized by an index function
// (row permutation) over all N columns.
func (e *Engine[T]) colFnPass(data []T, st *execState[T], kern func([]T, int, int, func(int) int, []T, int, int), f func(int) int) {
	s := e.s
	m, n := s.Plan.M, s.Plan.N
	bounds := s.boundsN
	if len(bounds) == 2 {
		kern(data, m, n, f, st.frames[0].elems(m), bounds[0], bounds[1])
		return
	}
	s.dispatch(bounds, func(w, lo, hi int) {
		kern(data, m, n, f, st.frames[w].elems(m), lo, hi)
	})
}

// rotatePass runs the naive column-rotation kernel, which additionally
// takes the plan's strength-reduced divider for m, over all N columns.
func (e *Engine[T]) rotatePass(data []T, st *execState[T], f func(int) int) {
	s := e.s
	m, n := s.Plan.M, s.Plan.N
	divM := s.Plan.DivM()
	bounds := s.boundsN
	if len(bounds) == 2 {
		e.kRotate(data, m, n, f, divM, st.frames[0].elems(m), bounds[0], bounds[1])
		return
	}
	s.dispatch(bounds, func(w, lo, hi int) {
		e.kRotate(data, m, n, f, divM, st.frames[w].elems(m), lo, hi)
	})
}

// tilePass runs one tiled column pass over every column tile. A tile
// takes m·tileW elements of its worker's buffer, which the row passes
// grow to n elements only on the workers that share out the rows.
func (e *Engine[T]) tilePass(data []T, st *execState[T], mode tileMode) {
	s := e.s
	if s.Plan.M <= 1 {
		return
	}
	bounds := e.boundsTiles
	if len(bounds) == 2 {
		fr := &st.frames[0]
		tileColumnsRange(data, s.Plan, mode, e.tileW, fr.elems(e.tileLen), fr.amounts(e.tileW), bounds[0], bounds[1])
		return
	}
	s.dispatch(bounds, func(w, lo, hi int) {
		fr := &st.frames[w]
		tileColumnsRange(data, s.Plan, mode, e.tileW, fr.elems(e.tileLen), fr.amounts(e.tileW), lo, hi)
	})
}

// rowPermute applies one of the schedule's cached row permutations by
// whole-row cycle following (§4.7), the skinny pipeline's last pass:
// workers split the cycles and move full n-element rows.
func (e *Engine[T]) rowPermute(data []T, st *execState[T], cy *cycles) {
	s := e.s
	m, n := s.Plan.M, s.Plan.N
	if m <= 1 || len(cy.leaders) == 0 {
		return
	}
	bounds := cy.bounds
	if len(bounds) == 2 {
		rowPermuteNarrowRange(data, n, cy.p, cy.leaders, cy.lengths, st.frames[0].elems(n), bounds[0], bounds[1])
		return
	}
	s.dispatch(bounds, func(wk, lo, hi int) {
		rowPermuteNarrowRange(data, n, cy.p, cy.leaders, cy.lengths, st.frames[wk].elems(n), lo, hi)
	})
}

// bandSweep runs one skinny band sweep over all M rows, snapshotting the
// inter-chunk bands into the state's recycled slabs first.
func (e *Engine[T]) bandSweep(data []T, st *execState[T], forward bool, band int, bounds []int, saved [][]T, row bandRowFunc[T]) {
	s := e.s
	m, n := s.Plan.M, s.Plan.N
	nchunks := len(bounds) - 1
	snapshotBands(data, n, band, forward, bounds, saved)
	if nchunks == 1 {
		fr := &st.frames[0]
		fr.br = bandReader[T]{data: data, n: n, m: m, lo: bounds[0], hi: bounds[1], band: band, forward: forward}
		fr.br.outside, fr.br.wrap = bandNeighbors(saved, band, nchunks, 0, forward)
		bandChunkRange(&fr.br, data, n, forward, row, fr.elems(n), bounds[0], bounds[1])
		return
	}
	s.dispatch(bounds, func(w, lo, hi int) {
		fr := &st.frames[w]
		fr.br = bandReader[T]{data: data, n: n, m: m, lo: lo, hi: hi, band: band, forward: forward}
		fr.br.outside, fr.br.wrap = bandNeighbors(saved, band, nchunks, w, forward)
		bandChunkRange(&fr.br, data, n, forward, row, fr.elems(n), lo, hi)
	})
}

// --- Execution state ---

// execState is the private scratch of one execution: a frame per worker
// slot plus the band-snapshot slabs of the skinny sweeps. States are
// recycled through the engine's arena, so their buffers grow to their
// steady-state sizes on first use and are reused thereafter.
type execState[T any] struct {
	frames   []frame[T]
	savedPre [][]T // skinny pass snapshots, band c-1, one per chunk
	savedRot [][]T // skinny pass snapshots, band n-1, one per chunk
}

func newExecState[T any](s *Schedule) *execState[T] {
	st := &execState[T]{frames: make([]frame[T], s.workers)}
	if s.Opts.Variant == Skinny && s.skinnyOK {
		st.savedPre = arena.Slab[T](s.nchunksPre, s.bandPre*s.Plan.N)
		st.savedRot = arena.Slab[T](s.nchunksRot, s.bandRot*s.Plan.N)
	}
	return st
}

// frame is the per-worker scratch of one execution: the permute-through
// buffer shared by the row passes and the column tiles, the tile's
// rotation amounts, the row shuffle's stride table, plus an inline band
// reader. Buffers grow on demand and keep their capacity across
// recycled executions.
type frame[T any] struct {
	tmp []T
	am  []int
	tab []int32
	br  bandReader[T]
}

// elems returns the frame's n-element permute-through buffer, growing it
// if this execution needs more than any before.
func (fr *frame[T]) elems(n int) []T {
	if cap(fr.tmp) < n {
		fr.tmp = make([]T, n)
	}
	return fr.tmp[:n]
}

// table returns the frame's row-shuffle stride table of n entries.
func (fr *frame[T]) table(n int) []int32 {
	if cap(fr.tab) < n {
		fr.tab = make([]int32, n)
	}
	return fr.tab[:n]
}

// amounts returns the frame's rotation-amount array of n entries.
func (fr *frame[T]) amounts(n int) []int {
	if cap(fr.am) < n {
		fr.am = make([]int, n)
	}
	return fr.am[:n]
}
