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
// scratch states and the element-size-dependent geometry of the passes,
// and executes the C2R/R2C transpositions with zero steady-state
// allocations. One Engine may execute concurrently on distinct buffers;
// each execution draws a private state from the arena.
type Engine[T any] struct {
	s      *Schedule
	states *arena.Pool[execState[T]]

	// Tile geometry, which depends on the element size: the tile width
	// and the elements a tile takes in its worker's scratch buffer (see
	// ScratchBytes), with the chunk partition of the tiled sweeps. A
	// rectangular plan's column passes share out its ⌈n/tileW⌉ column
	// tiles, each m·tileW elements; a square plan's swap sweep shares
	// out its band pairs, each staged through one tileW×tileW tile, or
	// none when one tile covers the matrix (swap.go).
	square      bool
	tileW       int
	boundsTiles []int
	tileLen     int

	// Row-shuffle kernel (rowshuffle.go), chosen from the shape: its
	// kind, the interleave block in elements per stream, and the R2C
	// stride-table step c·(a mod b).
	row     rowKind
	rowBlk  int
	tabStep int
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
	if e.square = m == n; e.square {
		e.boundsTiles = parallel.Bounds(swapPairs(n, e.tileW), s.workers, 1)
		if e.tileW < n {
			e.tileLen = e.tileW * e.tileW // below n·n, which fits
		}
		return e
	}
	e.boundsTiles = parallel.Bounds((n+e.tileW-1)/e.tileW, s.workers, 1)
	var ok bool
	if e.tileLen, ok = mathutil.CheckedMul(m, e.tileW); !ok {
		panic("core: m×tile width overflows int") // unreachable: tileW <= n and m·n fits
	}
	e.row = rowKindOf(p.A, p.B, n)
	e.rowBlk = interleaveBlock(p.C, p.B, es)
	e.tabStep = p.C * p.DivB().Mod(p.A)
	return e
}

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

// c2r composes the C2R transpose from three sweeps: the tiled
// pre-rotation (only when gcd(m,n) > 1), the row shuffle of
// rowshuffle.go, and the tiled column shuffle s'_j = p_j∘q fused into
// one gather (Equations 23, 24, 26, 32–33). A square plan, whose C2R
// and R2C are the same involution, runs the one swap sweep of swap.go
// instead. st is the execution's scratch state.
//
//xpose:hotpath
func (e *Engine[T]) c2r(data []T, st *execState[T]) {
	if e.square {
		e.swapPass(data, st)
		return
	}
	if !e.s.Plan.Coprime {
		e.tilePass(data, st, tilePreRotate)
	}
	e.shufflePass(data, st, true)
	e.tilePass(data, st, tileShuffle)
}

// r2c inverts the C2R transpose sweep by sweep (§4.3), or runs the
// swap sweep of a square plan.
//
//xpose:hotpath
func (e *Engine[T]) r2c(data []T, st *execState[T]) {
	if e.square {
		e.swapPass(data, st)
		return
	}
	e.tilePass(data, st, tileShuffleInv)
	e.shufflePass(data, st, false)
	if !e.s.Plan.Coprime {
		e.tilePass(data, st, tilePostRotate)
	}
}

// --- Pass drivers ---
//
// Each driver runs a range kernel over a precomputed chunk partition.
// The single-chunk case calls the kernel directly: no closure is built,
// which together with the arena-backed frames makes sequential
// executions allocation-free in steady state. Multi-chunk dispatch goes
// through the schedule (persistent pool or spawned goroutines); the
// chunk index doubles as the scratch frame index.

// shufflePass runs the row shuffle, C2R or R2C, over all M rows.
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

// swapPass runs the swap sweep of a square plan over every band pair.
// Its multi-worker dispatch reuses the state's swap body, built on the
// state's first such sweep, which reads the buffer from st.data: a warm
// sweep builds no closure.
func (e *Engine[T]) swapPass(data []T, st *execState[T]) {
	n, b, tileLen := e.s.Plan.N, e.tileW, e.tileLen
	bounds := e.boundsTiles
	if len(bounds) == 2 {
		swapBands(data, n, b, st.frames[0].elems(tileLen), bounds[0], bounds[1])
		return
	}
	if st.swap == nil {
		st.swap = func(w, lo, hi int) {
			swapBands(st.data, n, b, st.frames[w].elems(tileLen), lo, hi)
		}
	}
	st.data = data
	e.s.dispatch(bounds, st.swap)
	st.data = nil
}

// --- Execution state ---

// execState is the private scratch of one execution: a frame per worker
// slot. States are recycled through the engine's arena, so their
// buffers grow to their steady-state sizes on first use and are reused
// thereafter.
type execState[T any] struct {
	frames []frame[T]

	// swap is the square sweep's multi-worker body and data the buffer
	// it transposes, set for the duration of one sweep (see swapPass).
	swap func(worker, lo, hi int)
	data []T
}

func newExecState[T any](s *Schedule) *execState[T] {
	return &execState[T]{frames: make([]frame[T], s.workers)}
}

// frame is the per-worker scratch of one execution: the permute-through
// buffer shared by the row passes and the column tiles (for a square
// plan, its staging tile), the tile's rotation amounts and the row
// shuffle's stride table. Buffers grow on
// demand and keep their capacity across recycled executions.
type frame[T any] struct {
	tmp []T
	am  []int
	tab []int32
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
