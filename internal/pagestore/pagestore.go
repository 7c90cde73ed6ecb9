// Package pagestore simulates the disk subsystem of the paper's testbed.
//
// The paper measures algorithms in node accesses (NA) on R*-trees with
// 1 KB pages (50 entries per node) and notes that MQM "benefits from the
// existence of an LRU buffer". This package provides those mechanisms,
// decoupled from the tree itself and safe for concurrent queries:
//
//   - CostTracker tallies the accesses of ONE query. It is a plain struct
//     owned by a single goroutine, so it needs no locking.
//   - Accountant is the index-wide disk model shared by every concurrent
//     query: an atomic aggregate of all accesses plus an optional
//     mutex-guarded LRU buffer that splits them into buffer hits and
//     physical reads (the NA a disk system would actually pay).
//   - LRU is a classic least-recently-used page buffer over abstract page
//     identifiers.
package pagestore

import (
	"sync"
	"sync/atomic"
)

// PageID identifies a page (an R-tree node or a slot of a flat file).
type PageID int64

// DefaultPageCapacity is the paper's 50 entries per 1 KB page.
const DefaultPageCapacity = 50

// CostTracker accumulates the I/O cost of a single query. Each query
// allocates its own tracker and reads it when done; because a tracker is
// never shared between goroutines, plain fields suffice and there is no
// synchronisation cost on the per-access hot path.
type CostTracker struct {
	// Logical counts every page visit, before buffering.
	Logical int64
	// Physical counts buffer misses — the paper's NA metric when a buffer
	// is attached, equal to Logical otherwise.
	Physical int64
	// Hits counts accesses served by the LRU buffer.
	Hits int64
}

// record tallies one access with the given buffer outcome.
func (c *CostTracker) record(hit bool) {
	c.Logical++
	if hit {
		c.Hits++
	} else {
		c.Physical++
	}
}

// Add merges the counts of other into c (used to aggregate per-query costs
// into workload totals).
func (c *CostTracker) Add(other CostTracker) {
	c.Logical += other.Logical
	c.Physical += other.Physical
	c.Hits += other.Hits
}

// Accountant models the disk subsystem shared by every query against one
// index: the aggregate access counts (atomic, so unlimited concurrent
// queries may charge it) and the optional LRU buffer (behind a small mutex,
// so warm-buffer semantics survive concurrency). Every access is charged to
// the aggregate and, when the caller supplies one, to a per-query
// CostTracker — with the same hit/miss outcome, so per-query costs always
// sum exactly to the aggregate.
type Accountant struct {
	logical  atomic.Int64
	physical atomic.Int64
	hits     atomic.Int64

	hasBuffer atomic.Bool // fast path: skip the lock when no buffer is attached
	mu        sync.Mutex
	buffer    *LRU
}

// NewAccountant returns an accountant, with an LRU buffer of bufferPages
// pages attached when bufferPages > 0.
func NewAccountant(bufferPages int) *Accountant {
	a := &Accountant{}
	if bufferPages > 0 {
		a.SetBuffer(NewLRU(bufferPages))
	}
	return a
}

// SetBuffer attaches (or detaches, with nil) an LRU buffer. Counts are not
// reset; call Reset for a fresh measurement.
func (a *Accountant) SetBuffer(b *LRU) {
	a.mu.Lock()
	a.buffer = b
	a.mu.Unlock()
	a.hasBuffer.Store(b != nil)
}

// Access records one access to the page, charging both the aggregate and,
// when tk is non-nil, the caller's per-query tracker. It returns true when
// the access was served by the buffer (a hit), false when it cost a
// physical read. Without a buffer every access is physical.
func (a *Accountant) Access(id PageID, tk *CostTracker) bool {
	hit := false
	if a.hasBuffer.Load() {
		a.mu.Lock()
		if a.buffer != nil {
			hit = a.buffer.Access(id)
		}
		a.mu.Unlock()
	}
	a.logical.Add(1)
	if hit {
		a.hits.Add(1)
	} else {
		a.physical.Add(1)
	}
	if tk != nil {
		tk.record(hit)
	}
	return hit
}

// Logical returns the aggregate number of logical page accesses.
func (a *Accountant) Logical() int64 { return a.logical.Load() }

// Physical returns the aggregate number of physical reads (buffer misses).
// This is the paper's NA metric when a buffer is attached.
func (a *Accountant) Physical() int64 { return a.physical.Load() }

// Hits returns the aggregate number of buffer hits.
func (a *Accountant) Hits() int64 { return a.hits.Load() }

// Totals returns the aggregate counts as a CostTracker snapshot.
func (a *Accountant) Totals() CostTracker {
	return CostTracker{Logical: a.Logical(), Physical: a.Physical(), Hits: a.Hits()}
}

// Reset zeroes the aggregate counters, leaving any attached buffer's
// contents intact.
func (a *Accountant) Reset() {
	a.logical.Store(0)
	a.physical.Store(0)
	a.hits.Store(0)
}

// ResetAll zeroes the aggregate counters and drops the buffer contents,
// modelling a cold cache.
func (a *Accountant) ResetAll() {
	a.Reset()
	a.mu.Lock()
	if a.buffer != nil {
		a.buffer.Clear()
	}
	a.mu.Unlock()
}

// LRU is a least-recently-used buffer of page IDs with fixed capacity.
// The zero value is unusable; construct with NewLRU. An LRU is not safe for
// concurrent use on its own — Accountant serialises access to its buffer.
type LRU struct {
	capacity int
	nodes    map[PageID]*lruNode
	head     *lruNode // most recently used
	tail     *lruNode // least recently used
}

type lruNode struct {
	id         PageID
	prev, next *lruNode
}

// NewLRU returns a buffer holding at most capacity pages. It panics when
// capacity < 1: a zero-capacity buffer is expressed by not attaching one.
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		panic("pagestore: LRU capacity must be >= 1")
	}
	return &LRU{capacity: capacity, nodes: make(map[PageID]*lruNode, capacity)}
}

// Access touches the page: returns true if it was already buffered (hit),
// otherwise inserts it, evicting the least-recently-used page if full.
func (l *LRU) Access(id PageID) bool {
	if n, ok := l.nodes[id]; ok {
		l.moveToFront(n)
		return true
	}
	n := &lruNode{id: id}
	l.nodes[id] = n
	l.pushFront(n)
	if len(l.nodes) > l.capacity {
		evict := l.tail
		l.unlink(evict)
		delete(l.nodes, evict.id)
	}
	return false
}

// Clear empties the buffer.
func (l *LRU) Clear() {
	l.nodes = make(map[PageID]*lruNode, l.capacity)
	l.head, l.tail = nil, nil
}

func (l *LRU) pushFront(n *lruNode) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *LRU) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *LRU) moveToFront(n *lruNode) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}
