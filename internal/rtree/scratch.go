package rtree

import (
	"math"

	"gnn/internal/geom"
	"gnn/internal/pq"
)

// This file holds the pooled per-query scratch of depth-first traversals.
// Query kernels are (near-)zero-allocation in steady state: every slice
// and heap a traversal needs is drawn from a sync.Pool-backed arena on
// entry and released on completion, and per-node candidate ordering uses
// an inlined insertion sort over a reusable buffer instead of a freshly
// allocated slice and a `sort.Slice` closure. The GNN kernels in
// internal/core share these types through their own pooled ExecContext.

// Cand pairs an entry with its traversal sort key D, plus a secondary
// tie-break key D2. Keys may be squared distances (squaring is monotone,
// so ordering is unaffected and no heap key pays a Sqrt); kernels whose
// primary key has a large tie mass (MBM's heuristic-2 key is zero for
// every entry overlapping the query MBR) order ties most-promising-first
// via D2, while the others leave D2 zero.
type Cand struct {
	E  Entry
	D  float64
	D2 float64
}

// SortCands orders candidates by ascending (D, D2). Nodes hold at most
// MaxEntries (50 in the paper's setup) entries, where a branch-light
// insertion sort beats the reflection/closure machinery of the generic
// sorts and allocates nothing.
func SortCands(c []Cand) {
	for i := 1; i < len(c); i++ {
		x := c[i]
		j := i - 1
		for j >= 0 && (c[j].D > x.D || (c[j].D == x.D && c[j].D2 > x.D2)) {
			c[j+1] = c[j]
			j--
		}
		c[j+1] = x
	}
}

// PCand is the packed-layout candidate: an int32 PackedRef (leaf slot or
// ^routing slot) with the same sort keys as Cand. Replacing the copied
// Entry with a 4-byte ref keeps per-depth candidate buffers within a few
// cache lines per node.
type PCand struct {
	Ref PackedRef
	D   float64
	D2  float64
}

// SortPCands orders packed candidates by ascending (D, D2) with the same
// insertion sort as SortCands, so both layouts produce identical
// permutations for identical keys.
func SortPCands(c []PCand) {
	for i := 1; i < len(c); i++ {
		x := c[i]
		j := i - 1
		for j >= 0 && (c[j].D > x.D || (c[j].D == x.D && c[j].D2 > x.D2)) {
			c[j+1] = c[j]
			j--
		}
		c[j+1] = x
	}
}

// CandStack hands out one candidate buffer per recursion depth: the
// parent is still iterating its sorted buffer while the child sorts its
// own, so depth-first traversals need a buffer per level, not one per
// query. Tree height is logarithmic (≤ 5 for the paper's datasets), so
// the stack stays tiny and is reused across queries via the scratch
// pools.
type CandStack struct {
	levels [][]Cand
}

// Level returns the (emptied) buffer of the given recursion depth,
// growing the stack on first descent.
func (s *CandStack) Level(depth int) *[]Cand {
	for len(s.levels) <= depth {
		s.levels = append(s.levels, nil)
	}
	s.levels[depth] = s.levels[depth][:0]
	return &s.levels[depth]
}

// Reset zeroes retained entries so pooled buffers don't pin points or
// subtrees of a finished query.
func (s *CandStack) Reset() {
	for i := range s.levels {
		clear(s.levels[i][:cap(s.levels[i])])
		s.levels[i] = s.levels[i][:0]
	}
}

// PCandStack is CandStack for packed candidates. PCands hold no pointers,
// so Reset only rewinds lengths.
type PCandStack struct {
	levels [][]PCand
}

// Level returns the (emptied) buffer of the given recursion depth.
func (s *PCandStack) Level(depth int) *[]PCand {
	for len(s.levels) <= depth {
		s.levels = append(s.levels, nil)
	}
	s.levels[depth] = s.levels[depth][:0]
	return &s.levels[depth]
}

// Reset rewinds all per-depth buffers.
func (s *PCandStack) Reset() {
	for i := range s.levels {
		s.levels[i] = s.levels[i][:0]
	}
}

// nnScratch is the per-query scratch of NearestDF: the per-depth
// candidate buffers (one stack per layout) and the bounded result set,
// plus the fused-kernel distance buffer and the point-gather scratch of
// the packed path.
type nnScratch struct {
	cands  CandStack
	pcands PCandStack
	dbuf   []float64
	pt     geom.Point
	best   nnBest
}

var nnScratchPool = pq.NewPool(func() *nnScratch { return &nnScratch{} })

// release resets the scratch and returns it to the pool.
func (s *nnScratch) release() {
	s.cands.Reset()
	s.pcands.Reset()
	s.best.reset(1, 0)
	nnScratchPool.Put(s)
}

// nnBest is NearestDF's bounded result set: a max-heap of the k nearest
// candidates keyed by squared distance. An accepted candidate's
// coordinates are copied into a row the set owns (the row of the
// candidate it evicts, once full), so the set never aliases the arena, a
// tree entry or the caller's gather scratch, and the rows grow with the
// candidates held, never with k.
type nnBest struct {
	heap pq.BoundedMax[nnRow]
	rows []float64 // row r holds coordinates rows[r*dim : (r+1)*dim]
	dim  int
}

// nnRow is one held candidate: its coordinate row and id.
type nnRow struct {
	row int32
	id  int64
}

// reset prepares the set for a query of k results in dim dimensions,
// dropping a row buffer above pq.RetainCap.
func (b *nnBest) reset(k, dim int) {
	b.heap.Reset(k)
	b.rows = pq.Trim(b.rows)
	b.dim = dim
}

// Kth returns the current pruning bound (see pq.BoundedMax.Kth).
func (b *nnBest) Kth() (float64, bool) { return b.heap.Kth() }

// push offers p (with its id) at squared distance d, copying it into an
// owned row when it ranks among the k nearest. p itself is not retained.
func (b *nnBest) push(p geom.Point, id int64, d float64) {
	var r int32
	if kth, full := b.heap.Kth(); full {
		if d >= kth {
			return
		}
		top, _ := b.heap.Max()
		r = top.Value.row // reuse the evicted candidate's row
		copy(b.rows[int(r)*b.dim:(int(r)+1)*b.dim], p)
	} else {
		// Rows are only appended while the heap fills, so the next row
		// index is the number held.
		r = int32(b.heap.Len())
		b.rows = append(b.rows, p...)
	}
	b.heap.Push(nnRow{row: r, id: id}, d)
}

// neighbors returns the held candidates in ascending order, converting
// the squared-priority keys into the Euclidean distances the API
// reports, with their points in one slab the caller owns. Dist(p,q) is
// defined as Sqrt(DistSq(p,q)), so the converted values are bit-identical
// to distances computed directly.
func (b *nnBest) neighbors() []Neighbor {
	items := b.heap.Sorted()
	out := make([]Neighbor, len(items))
	slab := make([]float64, len(items)*b.dim)
	for i, it := range items {
		pt := slab[i*b.dim : (i+1)*b.dim : (i+1)*b.dim]
		copy(pt, b.rows[int(it.Value.row)*b.dim:])
		out[i] = Neighbor{Point: pt, ID: it.Value.id, Dist: math.Sqrt(it.Priority)}
	}
	return out
}
