// Package inplace provides parallel in-place transposition of
// rectangular matrices in O(mn) work with O(max(m,n)) auxiliary space,
// implementing the decomposition of Catanzaro, Keller and Garland,
// "A Decomposition for In-place Matrix Transposition" (PPoPP 2014).
//
// Instead of following the cycles of the full mn-element transposition
// permutation — which needs either O(mn) cycle storage or O(mn log mn)
// work — the transposition is decomposed into independent row-wise and
// column-wise permutations ("C2R", columns-to-rows, and its inverse
// "R2C"): a column pre-rotation, a per-row shuffle by a closed-form
// bijection, and a column shuffle that factors into a rotation plus one
// shared row permutation. Every pass is embarrassingly parallel with
// perfect load balance.
//
// # Quick start
//
//	data := make([]float64, rows*cols) // row-major rows×cols
//	if err := inplace.Transpose(data, rows, cols); err != nil { ... }
//	// data now holds the row-major cols×rows transpose
//
// # Reusable plans
//
// Repeated transposes of one shape should reuse a Planner, which
// precomputes everything shape-dependent — the decomposition constants
// (gcd cofactors, modular inverses, fixed-point reciprocals), the pass
// schedule (direction heuristic, chunk partitions, rotation closures),
// the cycle decomposition of the shared row permutation, and a recycled
// scratch arena — so that steady-state Execute calls perform no heap
// allocation at all and multi-worker plans run on a persistent worker
// pool instead of spawning goroutines per pass:
//
//	pl, _ := inplace.NewPlanner[float64](rows, cols)
//	for _, buf := range buffers {
//	    pl.Execute(buf) // zero allocations after the first call
//	}
//
// A Planner is safe for concurrent use on distinct buffers. Plan reuse
// pays off when the per-call planning cost is a visible fraction of the
// data movement: small matrices transposed in a loop, and skinny
// AoS↔SoA shapes, where building the row-permutation cycles is O(rows)
// time and memory — comparable to the transpose itself. For one-off
// large transposes the planning cost is negligible and Transpose is
// fine; it (and TransposeWith, TransposeBatch, PermuteAxes, the AoS
// conversions and the raw-byte *Elem functions) transparently caches
// planners per (shape, options, element type) in one FIFO cache, so
// even ad-hoc repeated calls hit the amortized path.
//
// TransposeElem, TransposeBatchElem and PermuteAxesElem serve callers
// that hold raw bytes of a known element width (1, 2, 4 or 8) but no
// element type: a transpose moves whole records, so the bytes move as
// words of that width, in place when the buffer is aligned for them.
//
// The lower-level NewPlan/Do API remains for callers that only need the
// untyped shape resolution:
//
//	p, _ := inplace.NewPlan(rows, cols, inplace.Options{})
//	inplace.Do(p, data)
//
// # Array of Structures ↔ Structure of Arrays
//
// Transposing a count×fields row-major array converts an Array of
// Structures into a Structure of Arrays. AOSToSOA and SOAToAOS validate
// and delegate to the transposition; the direction heuristic then keeps
// every column operation within the tiny structure dimension, which is
// the paper's §6.1 specialization ("all column operations in on-chip
// memory"):
//
//	inplace.AOSToSOA(words, count, fields)
//
// # Engine
//
// Every transposition runs one engine: column operations as one-sweep
// tiled gathers through the paper's closed-form source rows, with the
// column shuffle's rotation and row permutation fused, and the row
// shuffle as a rotation, a blocked interleave or a gather through one
// shared stride table, chosen by shape — at most three sweeps over the
// matrix, two when gcd(rows, cols) = 1 (§4.6–4.7, §5.2). The shape
// heuristic of §5.2 picks the direction: the C2R and R2C pipelines have
// complementary performance landscapes with a crossover at square
// shapes, and the heuristic picks the pipeline whose internal columns
// are shorter (see Options.Direction to force either). On skinny AoS
// shapes that keeps every column operation within the structure
// dimension, the §6.1 specialization. Algorithm 1 and the paper's
// coarse/fine column kernels remain in internal/core as reproduction
// code for the figures and ablations; no public entry point runs them.
//
// The in-register SIMD formulation of §6.2, which lets a simulated SIMD
// processor perform Array-of-Structures accesses at full memory
// bandwidth, lives in internal/simd with its bandwidth model in
// internal/memsim; cmd/benchsuite reproduces the paper's figures with it.
//
// # Autotuning and wisdom
//
// The static heuristics above pick well on average, but the real
// crossover between the C2R/R2C directions, worker counts and tile
// widths depends on the machine (cache sizes, core count, memory
// bandwidth). Tune measures the actual candidate space for one shape
// and records the winner in a process-wide "wisdom" table — the same
// measured-plan-selection idea as FFTW's wisdom:
//
//	inplace.Tune[float64](rows, cols)        // measure once...
//	pl, _ := inplace.NewPlanner[float64](rows, cols)
//	pl.Execute(data)                         // ...runs the measured winner
//
// Wisdom is consulted whenever a typed planner resolves a shape whose
// Options leave the corresponding fields at their zero values: an
// explicit Direction, Workers, BlockWidth or MaxScratchBytes always wins
// over wisdom, Options.Tuning == WisdomOff ignores the table entirely,
// and WisdomRequired fails with ErrNoWisdom instead of falling back to
// the heuristic.
//
// The table holds every tuner's decisions — Tune, TunePermute, TuneOOC
// and TuneStore — keyed by (kind, canonical shape, element size,
// budget). The budget is the resolved worker budget for 2D transposes
// and permutations and the binary magnitude of the memory budget for
// out-of-core runs; tile-store decisions have none. A decision is
// consulted only under the budget it was tuned with: Tune with
// TuneConfig{Workers: 1} serves planners with Options{Workers: 1}, not
// a default planner on a multi-core host. float64 and uint64 share
// wisdom; float32 does not.
//
// SaveWisdom and LoadWisdom persist the table as versioned JSON.
// Loading merges (incoming entries win), rejects corrupt files with an
// error satisfying errors.Is(err, tune.ErrCorrupt), and silently skips
// files written by an unknown future format version. Wisdom measures
// this machine: a file tuned on one host is safe but pointless to load
// on another, and should be re-tuned after hardware or Go toolchain
// changes. Tuning costs real time (tens of milliseconds per shape with
// TuneConfig.Fast, a second or so at default budgets) — tune shapes
// that will be transposed many times, or batch-tune offline with
// cmd/xposetune and ship the file.
//
// # N-dimensional axis permutation
//
// PermuteAxes reorders the axes of a row-major rank-k tensor in place,
// with the 2D transpose as the rank-2 case (numpy convention: result
// axis j is source axis perm[j]):
//
//	// NHWC -> NCHW
//	inplace.PermuteAxes(data, []int{8, 32, 32, 16}, []int{0, 3, 1, 2},
//	    inplace.Options{})
//
// The planner canonicalizes first — size-1 axes are stripped and axes
// that stay adjacent in order collapse into one — and then factors the
// canonical permutation into at most k-1 suffix-group exchanges, each
// of which is a batched in-place 2D transpose over contiguous slabs
// executed by the same Schedule/Engine stack as Transpose. A cost model
// chooses between the greedy and inverse factorizations; when
// Options.MaxScratchBytes caps auxiliary space below both
// factorizations' floors, a strength-reduced cycle-leader walk with
// O(1) extra space runs instead. Rank-2 perm [1, 0] takes exactly the
// 2D planning path (same wisdom, zero warm allocations), and
// NewPermutePlanner amortizes planning the same way NewPlanner does.
// TunePermute measures strategy and worker candidates and stores the
// winner in the wisdom table under the canonical form, so raw shapes
// that collapse to the same form share the entry.
//
// # Out-of-core transposition
//
// TransposeFile transposes a matrix stored on any io.ReaderAt+io.WriterAt
// backend (*os.File included) in place on the backend, under a
// caller-specified scratch budget — the matrix never needs to fit in
// memory:
//
//	f, _ := os.OpenFile("matrix.bin", os.O_RDWR, 0)
//	stats, err := inplace.TransposeFile(f, rows, cols, 8, inplace.OOCOptions{
//	    Budget: 256 << 20,
//	})
//
// The schedule is the same three-pass decomposition lifted from cache
// blocks to storage segments: every pass touches the buffer along one
// axis only, so it splits into independent column-slab or row-run
// panels streamed through a prefetch/transform/write pipeline with
// write-combined backend spans. The budget floor is
// 2*max(rows,cols)*elemSize bytes — the decomposition's O(max(m,n))
// auxiliary bound made literal. Any positive element size is accepted:
// the engine permutes opaque fixed-size records.
//
// With OOCOptions.Journal set, every segment write is preceded by a
// durable undo image and followed by a checksummed commit record, so an
// interrupted run re-invoked with Resume converges to the bit-identical
// result; Verify re-reads the final pass against the committed
// checksums. Failures wrap the typed sentinels ErrOOCShortRead,
// ErrOOCShortWrite, ErrOOCCorruptSegment, ErrOOCBudget,
// ErrOOCJournalMismatch, ErrOOCJournalCorrupt and ErrOOCNoJournal.
// NewOOCPlanner validates and resolves the schedule once for repeated
// runs; TuneOOC measures schedule candidates on a temp file and records
// the winner in the wisdom table, keyed by shape, element size and the
// budget's binary magnitude. cmd/xposeooc wraps all of it for raw files.
//
// # Static analysis
//
// The hot-path guarantees above — zero allocation in steady state,
// overflow-checked index algebra, strength-reduced division — are
// enforced at build time by the xposelint suite (internal/analyzers):
//
//	go run ./cmd/xposelint ./...
//
// Functions on the per-execution path carry an //xpose:hotpath
// directive in their doc comment, which subjects them to the strict
// checks (no append/make/map/fmt/reflect, no raw % or / by
// plan-constant divisors); every dimension product feeding a subscript,
// make, or len comparison must be dominated by a
// mathutil.CheckedMul-style guard. Intentional exceptions are annotated
// in place with "//xpose:allow <analyzer> -- reason"; the reason is
// mandatory and unused directives are themselves flagged. `make lint`
// runs the suite and is part of the `make ci` gate. See
// internal/analyzers for the full contract.
package inplace
