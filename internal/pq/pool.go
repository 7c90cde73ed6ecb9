package pq

import "sync"

// Pool is a typed free-list backed by sync.Pool: the arena mechanism behind
// every per-query scratch structure (heaps, candidate buffers, weight and
// threshold slices). Each package that owns a scratch type instantiates one
// package-level Pool for it; queries Get a scratch on entry and Put it back
// on completion, so steady-state query execution allocates nothing.
//
// The contract mirrors sync.Pool's: a Put value must not be touched again
// by its previous owner, values may be dropped at any GC, and Get may
// return either a recycled value or a fresh one from the constructor.
type Pool[T any] struct {
	inner sync.Pool
	newFn func() *T
}

// NewPool returns a pool whose Get constructs values with newFn when the
// free list is empty.
func NewPool[T any](newFn func() *T) *Pool[T] {
	return &Pool[T]{newFn: newFn}
}

// Get returns a recycled *T, or a newly constructed one.
func (p *Pool[T]) Get() *T {
	if v := p.inner.Get(); v != nil {
		return v.(*T)
	}
	return p.newFn()
}

// Put returns v to the pool. Callers must have reset any state that would
// leak into the next query; the reuse tests assert this discipline.
func (p *Pool[T]) Put(v *T) {
	if v != nil {
		p.inner.Put(v)
	}
}

// RetainCap is the largest capacity, in elements, that a pooled scratch
// buffer keeps between queries. Buffers sized by a caller-controlled
// quantity (k, the group size) would otherwise pin one outsized request's
// memory in the pool for as long as the pool holds the scratch.
const RetainCap = 1 << 12

// Trim returns s emptied for reuse, or nil when its capacity exceeds
// RetainCap. Callers clear pointer payloads first when the elements hold
// any.
func Trim[T any](s []T) []T {
	if cap(s) > RetainCap {
		return nil
	}
	return s[:0]
}
