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
//   - PointFile models a flat disk file of points (the non-indexed,
//     disk-resident query set Q of §4), read block-by-block with page-read
//     accounting, as consumed by F-MQM and F-MBM.
package pagestore

import (
	"errors"
	"fmt"
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

// Reset zeroes the tracker.
func (c *CostTracker) Reset() { *c = CostTracker{} }

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

// Len returns the number of buffered pages.
func (l *LRU) Len() int { return len(l.nodes) }

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

// ErrOutOfRange reports a block index beyond the end of a PointFile.
var ErrOutOfRange = errors.New("pagestore: block index out of range")

// PointFile models the flat, non-indexed query file of §4: a sequence of
// 2-D points packed into pages of PointsPerPage entries. Reading a block
// charges one physical read per page through the file's Accountant and the
// reader's per-query tracker. Concurrent reads are safe.
type PointFile struct {
	points        [][2]float64
	pointsPerPage int
	blockPoints   int // points per in-memory block (10,000 in §5.2)
	acct          *Accountant
	basePage      PageID
}

// NewPointFile wraps points as a disk file. pointsPerPage is the page
// capacity (the paper's 50); blockPoints is the number of points loaded per
// memory block (the paper's 10,000). basePage offsets the file's page IDs
// so several files can share one buffer without collisions. A nil acct gets
// a private unbuffered accountant.
func NewPointFile(points [][2]float64, pointsPerPage, blockPoints int, acct *Accountant, basePage PageID) (*PointFile, error) {
	if pointsPerPage < 1 {
		return nil, fmt.Errorf("pagestore: pointsPerPage %d < 1", pointsPerPage)
	}
	if blockPoints < 1 {
		return nil, fmt.Errorf("pagestore: blockPoints %d < 1", blockPoints)
	}
	if acct == nil {
		acct = NewAccountant(0)
	}
	return &PointFile{
		points:        points,
		pointsPerPage: pointsPerPage,
		blockPoints:   blockPoints,
		acct:          acct,
		basePage:      basePage,
	}, nil
}

// Len returns the number of points in the file.
func (f *PointFile) Len() int { return len(f.points) }

// NumBlocks returns the number of memory blocks the file splits into.
func (f *PointFile) NumBlocks() int {
	if len(f.points) == 0 {
		return 0
	}
	return (len(f.points) + f.blockPoints - 1) / f.blockPoints
}

// BlockLen returns the number of points in block i.
func (f *PointFile) BlockLen(i int) (int, error) {
	if i < 0 || i >= f.NumBlocks() {
		return 0, fmt.Errorf("%w: block %d of %d", ErrOutOfRange, i, f.NumBlocks())
	}
	lo := i * f.blockPoints
	hi := lo + f.blockPoints
	if hi > len(f.points) {
		hi = len(f.points)
	}
	return hi - lo, nil
}

// ReadBlock loads block i into memory, charging one access per page the
// block spans to the file's accountant and, when tk is non-nil, to the
// caller's per-query tracker. The returned slice aliases the file's storage
// and must be treated as read-only.
func (f *PointFile) ReadBlock(i int, tk *CostTracker) ([][2]float64, error) {
	if i < 0 || i >= f.NumBlocks() {
		return nil, fmt.Errorf("%w: block %d of %d", ErrOutOfRange, i, f.NumBlocks())
	}
	lo := i * f.blockPoints
	hi := lo + f.blockPoints
	if hi > len(f.points) {
		hi = len(f.points)
	}
	firstPage := lo / f.pointsPerPage
	lastPage := (hi - 1) / f.pointsPerPage
	for p := firstPage; p <= lastPage; p++ {
		f.acct.Access(f.basePage+PageID(p), tk)
	}
	return f.points[lo:hi], nil
}

// Accountant exposes the file's shared accountant.
func (f *PointFile) Accountant() *Accountant { return f.acct }

// Pages returns the total number of pages the file occupies.
func (f *PointFile) Pages() int {
	return (len(f.points) + f.pointsPerPage - 1) / f.pointsPerPage
}
