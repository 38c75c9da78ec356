package inplace

import (
	"fmt"

	"inplace/internal/mathutil"
)

// TransposeBatch transposes `count` equally-shaped rows×cols matrices
// stored back to back in data, each in place. Batches of small matrices
// are the register-file workload of the paper's Section 6 scaled up to
// memory: each matrix transposes independently, so the batch
// parallelizes over matrices with perfect load balance, and the plan —
// gcd cofactors, modular inverses, reciprocals — is computed once and
// shared (§6.2.4: the dimensions are static, so index computation is
// amortized).
//
// The per-matrix planner comes from the process-wide planner cache and
// the batch loop runs on the persistent worker pool, so repeated batch
// calls of one shape skip both planning and goroutine spawning.
//
// Matrices small enough that parallelizing their internal passes would
// only add synchronization run sequentially within one worker.
func TransposeBatch[T any](data []T, count, rows, cols int, opts ...Options) error {
	o := optionsOf(opts)
	if count <= 0 {
		return fmt.Errorf("%w (got count=%d)", ErrShape, count)
	}
	// Each matrix runs single-threaded; the batch dimension provides the
	// parallelism. The Workers=1 planner's passes never dispatch, so
	// running them on pool workers cannot nest pool dispatches.
	inner := o
	inner.Workers = 1
	pl, err := plannerFor[T](rows, cols, inner)
	if err != nil {
		return err
	}
	// plannerFor has already proven rows*cols fits in int; the batch
	// length count*rows*cols needs its own overflow guard.
	total, ok := mathutil.CheckedMul(count, pl.p.size)
	if !ok {
		return fmt.Errorf("%w (got count=%d of %dx%d)", ErrOverflow, count, rows, cols)
	}
	if len(data) != total {
		return lengthErr(len(data), total)
	}
	forSlabs(pl, data, count, o.Workers)
	return nil
}
