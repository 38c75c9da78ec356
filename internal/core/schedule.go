package core

import (
	"sync"

	"inplace/internal/cr"
	"inplace/internal/parallel"
	"inplace/internal/perm"
)

// Schedule is the element-type-independent half of a reusable execution
// plan: everything the engines can precompute from the shape and options
// alone. Building one per call reproduces the old cold path; a Planner
// builds it once so repeated executions skip the chunk partitioning, the
// rotation-amount closures, and — the expensive part for the skinny
// pipeline — the cycle decomposition of the shared row permutation q.
type Schedule struct {
	Plan *cr.Plan
	Opts Opts

	workers int
	pool    *parallel.Pool

	// Chunk partitions for every pass family, precomputed with the
	// resolved worker count so chunk index == scratch frame index. The
	// cache-aware column tiles depend on the element size, so the
	// typed Engine partitions those.
	boundsM []int // row passes over [0, M)
	boundsN []int // column passes over [0, N)

	// Skinny banded path (§6.1).
	skinnyOK         bool
	bandPre, bandRot int   // look-ahead bands: c-1 and n-1
	boundsBandPre    []int // band sweeps over [0, M), minChunk c-1
	boundsBandRot    []int // band sweeps over [0, M), minChunk n-1
	nchunksPre       int
	nchunksRot       int

	// Rotation-amount and permutation closures, built once so executions
	// do not re-box plan methods.
	rotFn, negRotFn func(int) int
	negIDFn         func(int) int
	qFn, qInvFn     func(int) int

	// Cycle descriptors of q and q⁻¹ (§4.7) for the skinny pipeline's
	// whole-row permute, computed on first use by the direction that
	// needs them and then shared by every execution.
	qc2r, qr2c cycles
}

// cycles caches one row permutation in one-line notation together with
// its cycle leaders and a chunk partition over those leaders for the
// narrow-matrix parallelization of the cycle-following row permute.
type cycles struct {
	once    sync.Once
	p       perm.P
	leaders []int
	lengths []int
	bounds  []int
}

// NewSchedule resolves options against a plan: worker count, chunk
// partitions, closure table and scratch sizing. It performs
// no per-element work besides the O(workers) partitions; the O(M) cycle
// decompositions are deferred to first use.
func NewSchedule(plan *cr.Plan, o Opts) *Schedule {
	s := &Schedule{
		Plan:    plan,
		Opts:    o,
		workers: parallel.Workers(o.Workers),
		pool:    o.Pool,
	}
	m, n := plan.M, plan.N
	s.boundsM = parallel.Bounds(m, s.workers, 1)
	s.boundsN = parallel.Bounds(n, s.workers, 1)

	s.skinnyOK = skinnyViable(plan)
	if s.skinnyOK {
		s.bandPre = plan.C - 1
		s.bandRot = n - 1
		s.boundsBandPre = parallel.Bounds(m, s.workers, max(s.bandPre, 1))
		s.boundsBandRot = parallel.Bounds(m, s.workers, max(s.bandRot, 1))
		s.nchunksPre = len(s.boundsBandPre) - 1
		s.nchunksRot = len(s.boundsBandRot) - 1
	}

	s.rotFn = plan.Rot
	s.negRotFn = func(j int) int { return -plan.Rot(j) }
	s.negIDFn = negIdentityAmount
	s.qFn = plan.Q
	s.qInvFn = plan.QInv
	return s
}

func identityAmount(j int) int    { return j }
func negIdentityAmount(j int) int { return -j }

// qCycles returns the cycle descriptors of q, computing them on first
// use. Safe for concurrent executions.
func (s *Schedule) qCycles() *cycles { return s.cyc(&s.qc2r, s.qFn) }

// qInvCycles returns the cycle descriptors of q⁻¹.
func (s *Schedule) qInvCycles() *cycles { return s.cyc(&s.qr2c, s.qInvFn) }

func (s *Schedule) cyc(c *cycles, f func(int) int) *cycles {
	c.once.Do(func() {
		c.p = perm.FromFunc(s.Plan.M, f)
		c.leaders, c.lengths = c.p.Leaders()
		c.bounds = parallel.Bounds(len(c.leaders), s.workers, 1)
	})
	return c
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
