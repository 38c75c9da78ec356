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
// m×n array described by the schedule's plan: afterwards data holds the
// row-major n×m transpose (Theorem 1). len(data) must equal m·n.
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

// R2C performs the in-place R2C transposition, the exact inverse of C2R:
// if data holds a row-major n×m array, R2C with an m×n plan leaves data
// holding the row-major m×n transpose.
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
// Each pass runs over a precomputed chunk partition through run: one
// chunk directly, several on the schedule's persistent pool or on
// spawned goroutines through the state's one body, built on its first
// multi-chunk pass, which reads the buffer and the pass from the state.
// So no warm execution builds a closure, which together with the
// arena-backed frames makes executions allocation-free in steady state.
// The chunk index doubles as the scratch frame index.

// shufflePass runs the row shuffle, C2R or R2C, over all M rows.
func (e *Engine[T]) shufflePass(data []T, st *execState[T], c2r bool) {
	st.c2r = c2r
	e.run(data, st, passShuffle, e.s.boundsM)
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
	if e.s.Plan.M > 1 {
		st.mode = mode
		e.run(data, st, passTile, e.boundsTiles)
	}
}

// swapPass runs the swap sweep of a square plan over every band pair.
func (e *Engine[T]) swapPass(data []T, st *execState[T]) {
	e.run(data, st, passSwap, e.boundsTiles)
}

// run runs pass over the chunk partition bounds of data.
func (e *Engine[T]) run(data []T, st *execState[T], pass passKind, bounds []int) {
	st.data, st.pass = data, pass
	if len(bounds) == 2 {
		e.chunk(st, 0, bounds[0], bounds[1])
	} else {
		if st.body == nil {
			st.body = func(w, lo, hi int) { e.chunk(st, w, lo, hi) }
		}
		if e.s.pool != nil {
			e.s.pool.ForBounds(bounds, st.body)
		} else {
			parallel.ForBounds(bounds, st.body)
		}
	}
	st.data = nil
}

// chunk runs chunk [lo, hi) of the state's pass with the scratch of
// worker w's frame.
func (e *Engine[T]) chunk(st *execState[T], w, lo, hi int) {
	fr := &st.frames[w]
	switch st.pass {
	case passShuffle:
		e.shuffleRows(st.data, fr, st.c2r, lo, hi)
	case passTile:
		tileColumnsRange(st.data, e.s.Plan, st.mode, e.tileW, fr.elems(e.tileLen), fr.amounts(e.tileW), lo, hi)
	default:
		swapBands(st.data, e.s.Plan.N, e.tileW, fr.elems(e.tileLen), lo, hi)
	}
}

// --- Execution state ---

// execState is the private scratch of one execution: a frame per worker
// slot. States are recycled through the engine's arena, so their
// buffers grow to their steady-state sizes on first use and are reused
// thereafter.
type execState[T any] struct {
	frames []frame[T]

	// body is the multi-worker body of every pass (see run). It reads
	// the pass to run from the fields below, which hold the buffer, the
	// pass kind, the row shuffle's direction and the tiled pass's mode
	// for the duration of one pass.
	body func(worker, lo, hi int)
	data []T
	pass passKind
	c2r  bool
	mode tileMode
}

// passKind names an engine pass for the state's body.
type passKind int

const (
	passShuffle passKind = iota // row shuffle (rowshuffle.go)
	passTile                    // tiled column pass (tile.go)
	passSwap                    // a square's swap sweep (swap.go)
)

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
