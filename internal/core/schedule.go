package core

import (
	"inplace/internal/cr"
	"inplace/internal/parallel"
)

// Schedule is the element-type-independent half of a reusable execution
// plan: everything the engine can precompute from the shape and options
// alone. Building one per call reproduces the old cold path; a Planner
// builds it once so repeated executions skip the worker resolution and
// the chunk partitioning.
type Schedule struct {
	Plan *cr.Plan
	Opts Opts

	workers int
	pool    *parallel.Pool

	// boundsM partitions the row shuffle over [0, M), precomputed with
	// the resolved worker count so chunk index == scratch frame index.
	// The column tiles depend on the element size, so the typed Engine
	// partitions those.
	boundsM []int
}

// NewSchedule resolves options against a plan: worker count and the row
// partition. It performs no per-element work.
func NewSchedule(plan *cr.Plan, o Opts) *Schedule {
	workers := parallel.Workers(o.Workers)
	return &Schedule{
		Plan:    plan,
		Opts:    o,
		workers: workers,
		pool:    o.Pool,
		boundsM: parallel.Bounds(plan.M, workers, 1),
	}
}

// dispatch runs body over the chunks of bounds: on the persistent pool
// when the schedule has one, otherwise on freshly spawned goroutines.
// Callers handle the single-chunk case themselves (calling the kernel
// directly keeps the sequential path free of closure allocations).
func (s *Schedule) dispatch(bounds []int, body func(worker, lo, hi int)) {
	if s.pool != nil {
		s.pool.ForBounds(bounds, body)
		return
	}
	parallel.ForBounds(bounds, body)
}
