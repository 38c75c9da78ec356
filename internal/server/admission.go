package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"inplace/internal/stats"
)

// The admission controller bounds the total bytes the daemon holds in
// flight. Its cost model is the paper's auxiliary-space theorem made
// operational: an in-memory job costs its payload plus the scratch one
// execution of its plan holds, inplace.ScratchBytes of the plan as the
// planner resolves it — direction, workers and tile width, wisdom
// included. Per worker that is at most max(n, m·W) elements (the
// row shuffle's n-element buffer, which at most m workers hold, and a
// column pass's W-column tile) plus the tile's W-entry amount array,
// an O(max(m,n)) bound in the sense of Catanzaro et al. A spilled job
// costs only its out-of-core resident budget, raised to the
// 2·max(rows,cols)·elemSize floor of the segment pipeline, because its
// payload lives on disk. Because every cost bounds what the job holds
// rather than estimating it, the ledger is a hard guarantee: the sum
// of admitted costs never exceeds the configured budget, which /stats
// exposes as the in-flight level and its peak.
//
// Jobs that do not fit immediately wait in FIFO order up to a deadline;
// beyond the deadline (or when the queue itself is full) the job is
// shed with a typed retry-after error. FIFO grant order means one large
// job cannot be starved by a stream of small ones.

// ShedError is returned when admission control rejects a job under
// load. RetryAfter is the controller's suggested backoff.
type ShedError struct {
	RetryAfter time.Duration
}

// Error describes the shed.
func (e *ShedError) Error() string {
	return fmt.Sprintf("server: admission shed, retry after %v", e.RetryAfter)
}

// ErrTooLarge reports a job whose admission cost exceeds the entire
// in-flight budget: it can never be admitted, so retrying is pointless.
var ErrTooLarge = errors.New("server: job exceeds the admission budget")

// admitter is the in-flight byte ledger.
type admitter struct {
	budget   int64
	maxWait  time.Duration
	maxQueue int

	mu       sync.Mutex
	inflight int64
	queue    []*waiter
	queued   int // live (non-canceled) waiters in queue

	admitted *stats.Counter
	shed     *stats.Counter
	inflLvl  *stats.Level
	queueLvl *stats.Level
}

type waiter struct {
	cost     int64
	ready    chan struct{}
	granted  bool
	canceled bool
}

// newAdmitter wires a controller to its registry metrics.
func newAdmitter(budget int64, maxWait time.Duration, maxQueue int, reg *stats.Registry) *admitter {
	a := &admitter{
		budget:   budget,
		maxWait:  maxWait,
		maxQueue: maxQueue,
		admitted: reg.Counter("server_admitted"),
		shed:     reg.Counter("server_shed"),
		inflLvl:  reg.Level("server_inflight_bytes"),
		queueLvl: reg.Level("server_queue_depth"),
	}
	reg.Gauge("server_inflight_budget_bytes").Observe(uint64(budget))
	return a
}

// Admit blocks until cost bytes fit under the budget or the deadline
// passes, returning a release func on success. Exactly one of release
// and err is non-nil.
func (a *admitter) Admit(cost int64) (release func(), err error) {
	if cost <= 0 {
		cost = 1
	}
	if cost > a.budget {
		return nil, fmt.Errorf("%w (cost %d > budget %d)", ErrTooLarge, cost, a.budget)
	}
	a.mu.Lock()
	if a.queued == 0 && a.inflight+cost <= a.budget {
		a.grantLockedDirect(cost)
		a.mu.Unlock()
		return func() { a.release(cost) }, nil
	}
	if a.maxQueue > 0 && a.queued >= a.maxQueue {
		a.shed.Inc()
		a.mu.Unlock()
		return nil, &ShedError{RetryAfter: a.retryAfter()}
	}
	w := &waiter{cost: cost, ready: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.queued++
	a.queueLvl.Add(1)
	a.mu.Unlock()

	t := time.NewTimer(a.maxWait)
	defer t.Stop()
	select {
	case <-w.ready:
		return func() { a.release(cost) }, nil
	case <-t.C:
	}
	// Deadline passed — but a grant may have raced the timer. Decide
	// under the lock: granted wins, otherwise cancel in place (the
	// grant loop skips canceled waiters lazily).
	a.mu.Lock()
	if w.granted {
		a.mu.Unlock()
		return func() { a.release(cost) }, nil
	}
	w.canceled = true
	a.queued--
	a.queueLvl.Add(-1)
	a.shed.Inc()
	a.mu.Unlock()
	return nil, &ShedError{RetryAfter: a.retryAfter()}
}

// grantLockedDirect accounts an immediate admission. Caller holds mu.
func (a *admitter) grantLockedDirect(cost int64) {
	a.inflight += cost
	a.inflLvl.Add(cost)
	a.admitted.Inc()
}

// release returns cost bytes to the budget and grants queued waiters in
// FIFO order while they fit.
func (a *admitter) release(cost int64) {
	a.mu.Lock()
	a.inflight -= cost
	a.inflLvl.Add(-cost)
	a.grantLocked()
	a.mu.Unlock()
}

// grantLocked pops the queue head while the budget covers it. Caller
// holds mu.
func (a *admitter) grantLocked() {
	for len(a.queue) > 0 {
		w := a.queue[0]
		if w.canceled {
			a.queue = a.queue[1:]
			continue
		}
		if a.inflight+w.cost > a.budget {
			return
		}
		a.queue = a.queue[1:]
		a.queued--
		a.queueLvl.Add(-1)
		a.inflight += w.cost
		a.inflLvl.Add(w.cost)
		a.admitted.Inc()
		w.granted = true
		close(w.ready)
	}
}

// retryAfter suggests a backoff: the queue deadline, floored at 1ms so
// a zero-wait controller still hands clients a usable hint.
func (a *admitter) retryAfter() time.Duration {
	if a.maxWait < time.Millisecond {
		return time.Millisecond
	}
	return a.maxWait
}

// InFlight returns the currently admitted bytes (for tests).
func (a *admitter) InFlight() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}
