// Package arena provides recycled scratch storage for the transposition
// engines. The decomposition's auxiliary-space bound is O(max(m, n)) per
// execution lane, but allocating that scratch on every call dominates the
// cost of transposing the small and skinny shapes the paper targets
// (§6.1). An arena sizes the scratch once — from the plan — and recycles
// it across executions through a sync.Pool, so a reused plan reaches a
// zero-allocation steady state while concurrent executions still each get
// private buffers.
package arena

import (
	"runtime"
	"sync"
	"sync/atomic"

	"inplace/internal/mathutil"
)

// Pool recycles pre-sized scratch frames of type F across executions.
// Get returns a private frame (freshly built by the constructor only when
// the pool is empty); Put returns it for reuse. A frame must not be used
// after Put. The zero Pool is not ready; use NewPool.
//
// The most recently returned frame waits in a slot of its own, so a
// caller executing one plan after another gets it back. A sync.Pool
// alone would not: it keeps a returned frame private to the processor
// (P) that returned it, so a goroutine that has since moved to another
// P, or whose P a GOMAXPROCS change removed, misses it and builds a new
// one. Garbage collection ages the slot as it ages a sync.Pool: a
// collection moves the slot's frame to a victim slot, which Get also
// serves, and the next collection drops it, so an idle Pool holds no
// scratch past its second collection. Frames beyond the slot, which
// only concurrent executions need, live in the sync.Pool. Frames hold
// only scratch state, so losing one is always safe — the next Get
// rebuilds.
type Pool[F any] struct {
	last, victim atomic.Pointer[F]
	listed       atomic.Bool // on the list each collection ages
	next         ager        // the next Pool on that list
	pool         sync.Pool
}

// NewPool returns a Pool whose empty-pool Get builds a frame with build.
func NewPool[F any](build func() *F) *Pool[F] {
	p := &Pool[F]{}
	p.pool.New = func() any { return build() }
	return p
}

// Get hands out a frame for one execution. The frame is either recycled
// from a finished execution or newly built; its contents are unspecified
// scratch and must be fully written before being read.
func (p *Pool[F]) Get() *F {
	if f := p.last.Swap(nil); f != nil {
		return f
	}
	if f := p.victim.Swap(nil); f != nil {
		return f
	}
	return p.pool.Get().(*F)
}

// Put recycles a frame. The caller must not retain any reference into it.
func (p *Pool[F]) Put(f *F) {
	if !p.last.CompareAndSwap(nil, f) {
		p.pool.Put(f)
		return
	}
	// Listed after the frame is in the slot, so a collection that
	// unlists the Pool either sees the frame or is seen here.
	if !p.listed.Load() && p.listed.CompareAndSwap(false, true) {
		aging.mu.Lock()
		p.next, aging.head = aging.head, p
		aging.mu.Unlock()
	}
}

// age runs once per garbage collection on a listed Pool: the slot's
// frame becomes the victim and the previous victim is dropped. It
// reports whether the Pool stays listed, which it does while it holds
// a frame.
func (p *Pool[F]) age() bool {
	v := p.last.Swap(nil)
	p.victim.Store(v)
	if v != nil {
		return true
	}
	p.listed.Store(false)
	// A Put may have filled the slot since the Swap and found the Pool
	// still listed.
	return p.last.Load() != nil && p.listed.CompareAndSwap(false, true)
}

// nextLink returns the Pool's link in the aging list.
func (p *Pool[F]) nextLink() *ager { return &p.next }

// ager is a listed Pool of any frame type.
type ager interface {
	age() bool
	nextLink() *ager
}

// aging lists, through the Pools' own links so that listing never
// allocates, the Pools that hold a frame in either slot. Each garbage
// collection ages every listed Pool and unlinks the emptied ones, so
// the list keeps an idle Pool reachable for at most two collections.
var aging struct {
	mu   sync.Mutex
	head ager
}

// gcSentinel is unreachable except while its finalizer runs, so the
// finalizer runs once after each garbage collection and re-arms itself
// on the same object. The pointer field keeps it out of the tiny
// allocator, whose objects may never be finalized.
type gcSentinel struct{ _ *byte }

func init() { armAging(new(gcSentinel)) }

func armAging(s *gcSentinel) {
	runtime.SetFinalizer(s, func(s *gcSentinel) {
		agePools()
		armAging(s)
	})
}

// agePools ages every listed Pool and unlinks the ones left empty.
func agePools() {
	aging.mu.Lock()
	defer aging.mu.Unlock()
	link := &aging.head
	for *link != nil {
		p := *link
		next := p.nextLink()
		if p.age() {
			link = next
			continue
		}
		*link, *next = *next, nil
	}
}

// Slab allocates one backing array of count*size elements and returns it
// split into count equal buffers, so that a set of same-size buffers
// (the out-of-core engine's segment ring) costs one allocation instead
// of one per buffer.
func Slab[T any](count, size int) [][]T {
	if count <= 0 || size <= 0 {
		return nil
	}
	total, ok := mathutil.CheckedMul(count, size)
	if !ok {
		panic("arena: slab size overflows int")
	}
	backing := make([]T, total)
	bufs := make([][]T, count)
	for i := range bufs {
		bufs[i] = backing[i*size : (i+1)*size : (i+1)*size]
	}
	return bufs
}
