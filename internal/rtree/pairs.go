package rtree

import (
	"fmt"
	"math"

	"gnn/internal/geom"
	"gnn/internal/pq"
)

// Pair is a pair of data points, one from each tree, with their distance.
type Pair struct {
	P, Q Neighbor
	Dist float64
}

// pairItem is a heap element of the incremental closest-pair search. Each
// side is a ref into its arena: a resolved leaf slot or a routing slot.
type pairItem struct {
	p, q PackedRef
}

// PairIterator enumerates point pairs (p, q), p from the first arena and
// q from the second, in ascending distance order — the incremental
// closest-pair algorithm of [HS98] used as the engine of GCP (§4.1).
//
// The iterator maintains a heap of slot pairs keyed by the squared
// mindist of their rectangles: since mindist lower-bounds every concrete
// pair beneath a slot pair and squaring preserves order, popping in heap
// order yields pairs in ascending distance while no heap key pays a Sqrt.
// Node accesses are charged to each side's execution context (each tree's
// shared accountant, plus whatever tracker the contexts carry).
//
// Iterators are drawn from a pool; Close recycles the heap (GCP closes its
// iterator on every path). Forgetting to Close costs only the reuse.
type PairIterator struct {
	rp, rq Reader
	heap   pq.Heap[pairItem]
	pp, pq geom.Point // gather scratch of the emitted pair's points
	closed bool
	// heapMax tracks the high-water mark of the heap, reported because the
	// paper discusses GCP's "large heap requirements" (§4.1).
	heapMax int
}

var pairIterPool = pq.NewPool(func() *PairIterator { return &PairIterator{} })

// slotRange is a run of slots on one side of a cross product: the slots
// [s, e) of one node, or a single slot (e = s+1); leaf selects the leaf
// slot space.
type slotRange struct {
	s, e int32
	leaf bool
}

// nodeRange returns node n's slots as a range.
func (p *Packed) nodeRange(n int32) slotRange {
	return slotRange{p.start[n], p.end[n], p.level[n] == 0}
}

// refRange returns the single slot of ref r as a range.
func refRange(r PackedRef) slotRange {
	s, leaf := RefSlot(r)
	return slotRange{s, s + 1, leaf}
}

func (r slotRange) ref(s int32) PackedRef {
	if r.leaf {
		return LeafRef(s)
	}
	return NodeRef(s)
}

// NewClosestPairIterator starts an incremental closest-pair scan between
// the arenas behind two per-query execution contexts of equal
// dimensionality. The contexts may share one CostTracker, which then
// accumulates the combined NA of both trees.
func NewClosestPairIterator(rp, rq Reader) (*PairIterator, error) {
	if rp.p.dim != rq.p.dim {
		return nil, fmt.Errorf("rtree: dimension mismatch %d vs %d", rp.p.dim, rq.p.dim)
	}
	it := pairIterPool.Get()
	it.rp, it.rq, it.closed, it.heapMax = rp, rq, false, 0
	it.heap.Reset()
	if rp.p.size > 0 && rq.p.size > 0 {
		np, nq := rp.PackedRoot(), rq.PackedRoot()
		it.pushCross(rp.p.nodeRange(np), rq.p.nodeRange(nq))
	}
	return it, nil
}

// pushCross enqueues the cross product of two slot ranges, P outer.
func (it *PairIterator) pushCross(ps, qs slotRange) {
	for i := ps.s; i < ps.e; i++ {
		for j := qs.s; j < qs.e; j++ {
			it.heap.Push(pairItem{ps.ref(i), qs.ref(j)}, it.pairDistSq(ps.leaf, i, qs.leaf, j))
		}
	}
	if it.heap.Len() > it.heapMax {
		it.heapMax = it.heap.Len()
	}
}

// pairDistSq is the squared mindist between P slot i and Q slot j:
// geom.DistSq for two points, geom.MinDistSqPointRect for a point and a
// rectangle, geom.MinDistSqRectRect for two rectangles, evaluated on the
// columns with the same operations in the same order.
func (it *PairIterator) pairDistSq(pLeaf bool, i int32, qLeaf bool, j int32) float64 {
	p, q := it.rp.p, it.rq.p
	var sum float64
	for a := 0; a < p.dim; a++ {
		var d float64
		switch {
		case pLeaf && qLeaf:
			d = p.pc[a][i] - q.pc[a][j]
		case pLeaf:
			d = pointRectGap(p.pc[a][i], q.rlo[a][j], q.rhi[a][j])
		case qLeaf:
			d = pointRectGap(q.pc[a][j], p.rlo[a][i], p.rhi[a][i])
		default:
			switch lo, hi := p.rlo[a][i], p.rhi[a][i]; {
			case q.rhi[a][j] < lo:
				d = lo - q.rhi[a][j]
			case hi < q.rlo[a][j]:
				d = q.rlo[a][j] - hi
			}
		}
		sum += d * d
	}
	return sum
}

// pointRectGap is one axis term of geom.MinDistSqPointRect.
func pointRectGap(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	}
	return 0
}

// rectArea is geom.Rect.Area of routing slot s.
func (p *Packed) rectArea(s int32) float64 {
	a := 1.0
	for ax := 0; ax < p.dim; ax++ {
		a *= p.rhi[ax][s] - p.rlo[ax][s]
	}
	return a
}

// Next returns the next closest pair; ok is false when all pairs have been
// reported or the iterator is closed. The pair's points are the
// iterator's gather scratch, valid only until the next call to Next or
// Close; copy them to keep them.
func (it *PairIterator) Next() (Pair, bool) {
	if it.closed {
		return Pair{}, false
	}
	p, q := it.rp.p, it.rq.p
	for {
		item, ok := it.heap.Pop()
		if !ok {
			return Pair{}, false
		}
		ps, pLeaf := RefSlot(item.Value.p)
		qs, qLeaf := RefSlot(item.Value.q)
		if pLeaf && qLeaf {
			d := math.Sqrt(item.Priority)
			it.pp = p.PointInto(ps, it.pp)
			it.pq = q.PointInto(qs, it.pq)
			return Pair{
				P:    Neighbor{Point: it.pp, ID: p.ids[ps], Dist: d},
				Q:    Neighbor{Point: it.pq, ID: q.ids[qs], Dist: d},
				Dist: d,
			}, true
		}
		// Expand the unresolved side with the larger rectangle (both when
		// only one is unresolved); this balanced policy keeps the heap
		// smaller than always expanding a fixed side.
		if qLeaf || (!pLeaf && p.rectArea(ps) >= q.rectArea(qs)) {
			it.pushCross(p.nodeRange(it.rp.PackedChild(ps)), refRange(item.Value.q))
		} else {
			it.pushCross(refRange(item.Value.p), q.nodeRange(it.rq.PackedChild(qs)))
		}
	}
}

// HeapMax returns the high-water mark of the pair heap.
func (it *PairIterator) HeapMax() int { return it.heapMax }

// Close releases the iterator's heap to the pool. Call it at most once,
// and do not use the iterator afterwards — see NNIterator.Close for the
// stale-handle hazard the closed flag cannot cover after a re-lease.
func (it *PairIterator) Close() {
	if it == nil || it.closed {
		return
	}
	it.closed = true
	it.rp, it.rq = Reader{}, Reader{}
	it.heap.Reset()
	pairIterPool.Put(it)
}
