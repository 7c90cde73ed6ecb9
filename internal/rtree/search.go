package rtree

import (
	"math"

	"gnn/internal/geom"
	"gnn/internal/pq"
)

// Neighbor is a data point returned by a proximity query.
type Neighbor struct {
	Point geom.Point
	ID    int64
	Dist  float64
}

// Search invokes fn for every indexed point inside r (boundaries
// inclusive). Traversal stops early when fn returns false. Visited nodes
// are charged to the reader's context. fn must not retain p: it is one
// scratch point reused for every hit. Copy it to keep it.
func (rd Reader) Search(r geom.Rect, fn func(p geom.Point, id int64) bool) {
	if rd.p.size == 0 {
		return
	}
	rd.search(rd.PackedRoot(), r, make(geom.Point, rd.p.dim), fn)
}

// NearestDF returns the k nearest neighbors of q using the depth-first
// branch-and-bound algorithm of [RKV95]: entries of each node are visited
// in ascending mindist order and subtrees farther than the current k-th
// best are pruned. Results are sorted by ascending distance.
//
// The traversal works entirely in squared distances (comparisons are
// order-preserving, so pruning is unaffected): the per-node candidate
// distances come from one fused pass over the SoA arrays, candidates are
// int32 refs, and the candidate buffers and result set come from a pooled
// scratch; in steady state only the returned results are allocated, with
// each result paying one Sqrt. The caller owns the returned points.
func (rd Reader) NearestDF(q geom.Point, k int) []Neighbor {
	if rd.p.size == 0 || k < 1 {
		return nil
	}
	sc := nnScratchPool.Get()
	sc.best.reset(k, rd.p.dim)
	rd.nearestDF(rd.PackedRoot(), q, sc, 0)
	out := sc.best.neighbors()
	sc.release()
	return out
}

func (rd Reader) nearestDF(n int32, q geom.Point, sc *nnScratch, depth int) {
	p := rd.p
	s, e := p.start[n], p.end[n]
	cnt := int(e - s)
	sc.dbuf = growFloat64(sc.dbuf, cnt)
	buf := sc.cands.Level(depth)
	cands := *buf
	if p.level[n] == 0 {
		geom.DistSqPointsPoint(p.pc, int(s), int(e), q, sc.dbuf)
		for i := 0; i < cnt; i++ {
			cands = append(cands, PCand{Ref: LeafRef(s + int32(i)), D: sc.dbuf[i]})
		}
	} else {
		geom.MinDistSqRectsPoint(p.rlo, p.rhi, int(s), int(e), q, sc.dbuf)
		for i := 0; i < cnt; i++ {
			cands = append(cands, PCand{Ref: NodeRef(s + int32(i)), D: sc.dbuf[i]})
		}
	}
	SortPCands(cands)
	*buf = cands
	for i := range cands {
		c := cands[i]
		if bd, ok := sc.best.Kth(); ok && c.D >= bd {
			return // every remaining candidate is at least this far
		}
		if slot, leaf := RefSlot(c.Ref); leaf {
			sc.pt = p.PointInto(slot, sc.pt)
			sc.best.push(sc.pt, p.ids[slot], c.D)
		} else {
			rd.nearestDF(rd.PackedChild(slot), q, sc, depth+1)
		}
	}
}

// NearestBF returns the k nearest neighbors of q using the I/O-optimal
// best-first algorithm of [HS99]. The results are sized by what the tree
// can hold, min(k, Len), not by k, and their points are copied into one
// slab the caller owns.
func (rd Reader) NearestBF(q geom.Point, k int) []Neighbor {
	if rd.p.size == 0 || k < 1 {
		return nil
	}
	it := rd.NewNNIterator(q)
	defer it.Close()
	n, dim := min(k, rd.p.size), rd.p.dim
	out := make([]Neighbor, 0, n)
	slab := make([]float64, 0, n*dim)
	for len(out) < k {
		nb, ok := it.Next()
		if !ok {
			break
		}
		s := len(slab)
		slab = append(slab, nb.Point...)
		nb.Point = slab[s : s+dim : s+dim]
		out = append(out, nb)
	}
	return out
}

// NNIterator reports the indexed points in ascending distance from a query
// point, one at a time — the incremental behaviour MQM depends on (§2,
// [HS99]). Each call to Next may visit further tree nodes, charged to the
// iterator's execution context.
//
// Iterators are drawn from a pool: callers that finish with an iterator
// before exhausting it should Close it so its heap is recycled; forgetting
// to Close only costs the reuse, never correctness. The heap holds 4-byte
// refs keyed by squared distances from fused passes, with one Sqrt per
// emitted neighbor.
type NNIterator struct {
	rd     Reader
	q      geom.Point
	heap   pq.Heap[PackedRef]
	dbuf   []float64  // fused-kernel distance buffer
	pt     geom.Point // gather scratch of the emitted point
	closed bool
}

var nnIterPool = pq.NewPool(func() *NNIterator { return &NNIterator{} })

// NewNNIterator starts an incremental nearest-neighbor scan around q.
func (rd Reader) NewNNIterator(q geom.Point) *NNIterator {
	it := nnIterPool.Get()
	it.rd, it.q, it.closed = rd, q, false
	it.heap.Reset()
	if rd.p.size > 0 {
		it.pushNode(rd.PackedRoot())
	}
	return it
}

// pushNode enqueues node n's slots on the heap, keyed by the fused
// squared distances to q.
func (it *NNIterator) pushNode(n int32) {
	p := it.rd.p
	s, e := p.start[n], p.end[n]
	cnt := int(e - s)
	it.dbuf = growFloat64(it.dbuf, cnt)
	if p.level[n] == 0 {
		geom.DistSqPointsPoint(p.pc, int(s), int(e), it.q, it.dbuf)
		for i := 0; i < cnt; i++ {
			it.heap.Push(LeafRef(s+int32(i)), it.dbuf[i])
		}
	} else {
		geom.MinDistSqRectsPoint(p.rlo, p.rhi, int(s), int(e), it.q, it.dbuf)
		for i := 0; i < cnt; i++ {
			it.heap.Push(NodeRef(s+int32(i)), it.dbuf[i])
		}
	}
}

// Next returns the next nearest point; ok is false when the data set is
// exhausted or the iterator has been closed. The returned Point is the
// iterator's gather scratch, valid only until the next call to Next or
// Close; copy it to keep it.
func (it *NNIterator) Next() (Neighbor, bool) {
	if it.closed {
		return Neighbor{}, false
	}
	p := it.rd.p
	for {
		item, ok := it.heap.Pop()
		if !ok {
			return Neighbor{}, false
		}
		slot, leaf := RefSlot(item.Value)
		if leaf {
			it.pt = p.PointInto(slot, it.pt)
			return Neighbor{
				Point: it.pt,
				ID:    p.ids[slot],
				Dist:  math.Sqrt(item.Priority),
			}, true
		}
		it.pushNode(it.rd.PackedChild(slot))
	}
}

// PeekDist returns the lower bound on the distance of the next neighbor
// without advancing; ok is false when exhausted or closed.
func (it *NNIterator) PeekDist() (float64, bool) {
	if it.closed {
		return 0, false
	}
	d, ok := it.heap.MinPriority()
	if !ok {
		return 0, false
	}
	return math.Sqrt(d), true
}

// Close releases the iterator's heap to the pool. Call it at most once,
// and do not use the iterator afterwards: once the object is re-leased to
// another query, the closed flag belongs to the new owner, so a stale
// handle's second Close (or Next) would corrupt that query. Holders of a
// possibly-already-closed handle (the public gnn.Iterator wrapper) must
// track their own done state instead of relying on this guard.
func (it *NNIterator) Close() {
	if it == nil || it.closed {
		return
	}
	it.closed = true
	it.rd = Reader{}
	it.q = nil
	it.heap.Reset()
	nnIterPool.Put(it)
}
