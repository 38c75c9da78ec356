package core

import (
	"fmt"
	"unsafe"

	"inplace/internal/arena"
	"inplace/internal/cr"
	"inplace/internal/mathutil"
	"inplace/internal/parallel"
)

// Engine transposes the array of one plan in one direction: it binds
// the plan to an element type, lists the passes of that direction with
// their element-size-dependent geometry and chunk partitions, and owns
// the recycled scratch states that Run walks the list in, with zero
// steady-state allocations. One Engine may run concurrently on distinct
// buffers; each run draws a private state from the arena.
type Engine[T any] struct {
	plan    *cr.Plan
	workers int
	passes  []pass
	states  *arena.Pool[execState[T]]

	// Tile geometry, which depends on the element size: the tile width
	// and the elements a tile takes in its worker's scratch buffer (see
	// ScratchBytes). A rectangular plan's column passes share out its
	// ⌈n/tileW⌉ column tiles, each m·tileW elements; a square plan's
	// swap sweep shares out its band pairs, each staged through one
	// tileW×tileW tile, or none when one tile covers the matrix
	// (swap.go).
	tileW   int
	tileLen int

	// Row-shuffle kernel (rowshuffle.go), chosen from the shape: its
	// kind, the interleave block in elements per stream, and the R2C
	// stride-table step c·(a mod b).
	row     rowKind
	rowBlk  int
	tabStep int
}

// pass is one sweep over the matrix: its kernel, the row shuffle's
// direction or the tiled pass's mode, and its chunk partition, cut for
// the engine's workers so that chunk index == scratch frame index.
type pass struct {
	kind   passKind
	c2r    bool
	mode   tileMode
	bounds []int
}

// passKind names the kernel of a pass.
type passKind int

const (
	passShuffle passKind = iota // row shuffle (rowshuffle.go)
	passTile                    // tiled column pass (tile.go)
	passSwap                    // a square's swap sweep (swap.go)
)

// NewEngine builds the engine that runs the C2R transposition of p when
// c2r is set and the R2C transposition otherwise, under options o. It
// resolves the workers and the tile geometry and lists the passes:
//
//	C2R:    [pre-rotation if gcd(m,n) > 1, row shuffle, column shuffle]
//	R2C:    [column unshuffle, row unshuffle, post-rotation if gcd(m,n) > 1]
//	square: [swap sweep], in either direction
//
// The column shuffle s'_j = p_j∘q is one fused gather (Equations 23, 24,
// 26, 32–33), R2C inverts C2R sweep by sweep (§4.3), and a square,
// whose transpose is an involution, swaps tile pairs (swap.go). A plan
// with one row (m = 1) has no column passes. NewEngine performs no
// per-element work.
func NewEngine[T any](p *cr.Plan, o Opts, c2r bool) *Engine[T] {
	var zero T
	es := int(unsafe.Sizeof(zero))
	m, n := p.M, p.N
	e := &Engine[T]{
		plan:    p,
		workers: parallel.Workers(o.Workers),
		passes:  make([]pass, 0, 3),
		tileW:   TileWidth(m, n, es, o.BlockW),
		row:     rowKindOf(p.A, p.B, n),
		rowBlk:  interleaveBlock(p.C, p.B, es),
		tabStep: p.C * p.DivB().Mod(p.A),
	}
	e.states = arena.NewPool(func() *execState[T] { return newExecState(e) })
	if m == n {
		if e.tileW < n {
			e.tileLen = e.tileW * e.tileW // below n·n, which fits
		}
		e.passes = append(e.passes, pass{kind: passSwap, bounds: parallel.Bounds(swapPairs(n, e.tileW), e.workers)})
		return e
	}
	var ok bool
	if e.tileLen, ok = mathutil.CheckedMul(m, e.tileW); !ok {
		panic("core: m×tile width overflows int") // unreachable: tileW <= n and m·n fits
	}
	rows := pass{kind: passShuffle, c2r: c2r, bounds: parallel.Bounds(m, e.workers)}
	if m == 1 { // gcd(1, n) = 1, and the column shuffle moves nothing
		e.passes = append(e.passes, rows)
		return e
	}
	tiles := parallel.Bounds((n+e.tileW-1)/e.tileW, e.workers)
	if c2r {
		if !p.Coprime {
			e.passes = append(e.passes, pass{kind: passTile, mode: tilePreRotate, bounds: tiles})
		}
		e.passes = append(e.passes, rows, pass{kind: passTile, mode: tileShuffle, bounds: tiles})
	} else {
		e.passes = append(e.passes, pass{kind: passTile, mode: tileShuffleInv, bounds: tiles}, rows)
		if !p.Coprime {
			e.passes = append(e.passes, pass{kind: passTile, mode: tilePostRotate, bounds: tiles})
		}
	}
	return e
}

// Run transposes data in place: afterwards data holds the row-major n×m
// transpose of the row-major m×n array of the engine's C2R plan, or the
// row-major m×n transpose of the n×m array of its R2C plan (Theorem 1).
// len(data) must equal m·n.
//
//xpose:hotpath
func (e *Engine[T]) Run(data []T) {
	if len(data) != e.plan.Size {
		panic(badLenMsg(len(data), e.plan))
	}
	st := e.states.Get()
	defer e.states.Put(st)
	for i := range e.passes {
		e.run(data, st, &e.passes[i])
	}
}

// badLenMsg builds the buffer-length panic message. Kept out of line so
// the hot entry point contains no fmt machinery.
func badLenMsg(n int, p *cr.Plan) string {
	return fmt.Sprintf("core: buffer length %d does not match %v", n, p)
}

// run runs pass ps over its chunk partition of data with the scratch
// state st: one chunk directly, several on the shared pool through the
// state's one body, built on its first multi-chunk pass, which reads
// the buffer and the pass from the state. So no warm execution builds a
// closure, which together with the arena-backed frames makes runs
// allocation-free in steady state. Pool dispatches must not nest, and
// they do not: no pool body runs a multi-worker engine, because
// TransposeBatch and the permutation steps plan the engines of their
// slabs at one worker before spreading the slabs over the pool.
func (e *Engine[T]) run(data []T, st *execState[T], ps *pass) {
	st.data, st.pass = data, ps
	if len(ps.bounds) == 2 {
		e.chunk(st, 0, ps.bounds[0], ps.bounds[1])
	} else {
		if st.body == nil {
			st.body = func(w, lo, hi int) { e.chunk(st, w, lo, hi) }
		}
		parallel.Shared().ForBounds(ps.bounds, st.body)
	}
	st.data, st.pass = nil, nil
}

// chunk runs chunk [lo, hi) of the state's pass with the scratch of
// worker w's frame. A column tile takes m·tileW elements of the
// worker's buffer, which the row shuffle grows to n elements only on
// the workers that share out the rows.
func (e *Engine[T]) chunk(st *execState[T], w, lo, hi int) {
	fr, ps := &st.frames[w], st.pass
	switch ps.kind {
	case passShuffle:
		e.shuffleRows(st.data, fr, ps.c2r, lo, hi)
	case passTile:
		tileColumnsRange(st.data, e.plan, ps.mode, e.tileW, fr.elems(e.tileLen), fr.amounts(e.tileW), lo, hi)
	default:
		swapBands(st.data, e.plan.N, e.tileW, fr.elems(e.tileLen), lo, hi)
	}
}

// shuffleRows runs the row shuffle of rows [lo, hi) with the kernel the
// plan's shape selects and the scratch of frame fr: the n-element row
// copy and, for the table kernels, the 2b-entry stride table, filled
// here on every execution.
//
//xpose:hotpath
func (e *Engine[T]) shuffleRows(data []T, fr *frame[T], c2r bool, lo, hi int) {
	p := e.plan
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

// --- Execution state ---

// execState is the private scratch of one execution: a frame per worker
// slot. States are recycled through the engine's arena, so their
// buffers grow to their steady-state sizes on first use and are reused
// thereafter.
type execState[T any] struct {
	frames []frame[T]

	// body is the multi-worker body of every pass (see run). It reads
	// the buffer and the pass to run from the fields below for the
	// duration of one pass.
	body func(worker, lo, hi int)
	data []T
	pass *pass
}

func newExecState[T any](e *Engine[T]) *execState[T] {
	return &execState[T]{frames: make([]frame[T], e.workers)}
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
