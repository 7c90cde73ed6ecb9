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
// inclusive) in a fresh aggregate-only execution context. Use
// Reader.Search to charge a per-query tracker.
func (t *Tree) Search(r geom.Rect, fn func(p geom.Point, id int64) bool) {
	t.Reader(nil).Search(r, fn)
}

// Search invokes fn for every indexed point inside r (boundaries
// inclusive). Traversal stops early when fn returns false. Visited nodes
// are charged to the reader's context. fn must not retain p: on the
// packed layout it is one scratch point reused for every hit, and on the
// dynamic layout it is the tree's own entry. Copy it to keep it.
func (rd Reader) Search(r geom.Rect, fn func(p geom.Point, id int64) bool) {
	if rd.t.size == 0 {
		return
	}
	if rd.p != nil {
		rd.searchPacked(rd.PackedRoot(), r, make(geom.Point, rd.p.dim), fn)
		return
	}
	rd.searchNode(rd.Root(), r, fn)
}

func (rd Reader) searchNode(nd Node, r geom.Rect, fn func(geom.Point, int64) bool) bool {
	for _, e := range nd.Entries() {
		if !e.Rect.Intersects(r) {
			continue
		}
		if e.IsLeafEntry() {
			if r.ContainsPoint(e.Point) && !fn(e.Point, e.ID) {
				return false
			}
		} else if !rd.searchNode(rd.Child(e), r, fn) {
			return false
		}
	}
	return true
}

// All invokes fn for every indexed point without charging node accesses
// (a bookkeeping scan, not a simulated disk traversal). fn must not
// retain p: it is the tree's own entry, or on a mapped shell tree one
// scratch point reused for the whole scan. Copy it to keep it.
func (t *Tree) All(fn func(p geom.Point, id int64) bool) {
	if t.size == 0 {
		return
	}
	if t.root == nil {
		t.shellOf.All(fn) // same depth-first slot order as the dynamic scan
		return
	}
	t.allNode(t.root, fn)
}

func (t *Tree) allNode(n *node, fn func(geom.Point, int64) bool) bool {
	for _, e := range n.entries {
		if e.child == nil {
			if !fn(e.Point, e.ID) {
				return false
			}
		} else if !t.allNode(e.child, fn) {
			return false
		}
	}
	return true
}

// NearestDF answers a depth-first k-NN query in a fresh aggregate-only
// execution context. Use Reader.NearestDF to charge a per-query tracker.
func (t *Tree) NearestDF(q geom.Point, k int) []Neighbor {
	return t.Reader(nil).NearestDF(q, k)
}

// NearestDF returns the k nearest neighbors of q using the depth-first
// branch-and-bound algorithm of [RKV95]: entries of each node are visited
// in ascending mindist order and subtrees farther than the current k-th
// best are pruned. Results are sorted by ascending distance.
//
// The traversal works entirely in squared distances (comparisons are
// order-preserving, so pruning is unaffected) and draws its candidate
// buffers and result set from a pooled scratch; in steady state only the
// returned results are allocated, with each result paying one Sqrt.
// The caller owns the returned points.
func (rd Reader) NearestDF(q geom.Point, k int) []Neighbor {
	if rd.t.size == 0 || k < 1 {
		return nil
	}
	sc := nnScratchPool.Get()
	sc.best.reset(k, rd.t.cfg.Dim)
	if rd.p != nil {
		rd.nearestDFPacked(rd.PackedRoot(), q, sc, 0)
	} else {
		rd.nearestDF(rd.Root(), q, sc, 0)
	}
	out := sc.best.neighbors()
	sc.release()
	return out
}

func (rd Reader) nearestDF(nd Node, q geom.Point, sc *nnScratch, depth int) {
	buf := sc.cands.Level(depth)
	cands := *buf
	for _, e := range nd.Entries() {
		var d float64
		if e.IsLeafEntry() {
			d = geom.DistSq(q, e.Point)
		} else {
			d = geom.MinDistSqPointRect(q, e.Rect)
		}
		cands = append(cands, Cand{E: e, D: d})
	}
	SortCands(cands)
	*buf = cands
	for i := range cands {
		c := cands[i]
		if bd, ok := sc.best.Kth(); ok && c.D >= bd {
			return // every remaining candidate is at least this far
		}
		if c.E.IsLeafEntry() {
			sc.best.push(c.E.Point, c.E.ID, c.D)
		} else {
			rd.nearestDF(rd.Child(c.E), q, sc, depth+1)
		}
	}
}

// NearestBF answers a best-first k-NN query in a fresh aggregate-only
// execution context. Use Reader.NearestBF to charge a per-query tracker.
func (t *Tree) NearestBF(q geom.Point, k int) []Neighbor {
	return t.Reader(nil).NearestBF(q, k)
}

// NearestBF returns the k nearest neighbors of q using the I/O-optimal
// best-first algorithm of [HS99]. The results are sized by what the tree
// can hold, min(k, Len), not by k, and their points are copied into one
// slab the caller owns.
func (rd Reader) NearestBF(q geom.Point, k int) []Neighbor {
	if rd.t.size == 0 || k < 1 {
		return nil
	}
	it := rd.NewNNIterator(q)
	defer it.Close()
	n, dim := min(k, rd.t.size), rd.t.cfg.Dim
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
// to Close only costs the reuse, never correctness. The heap is keyed by
// squared distances, with one Sqrt per emitted neighbor.
type NNIterator struct {
	rd     Reader
	q      geom.Point
	heap   pq.Heap[Entry]
	ph     pq.Heap[PackedRef] // packed-layout heap: 4-byte refs, fused keys
	dbuf   []float64          // fused-kernel distance buffer (packed path)
	pt     geom.Point         // gather scratch of the emitted point (packed path)
	closed bool
}

var nnIterPool = pq.NewPool(func() *NNIterator { return &NNIterator{} })

// NewNNIterator starts an incremental nearest-neighbor scan around q in a
// fresh aggregate-only execution context.
func (t *Tree) NewNNIterator(q geom.Point) *NNIterator {
	return t.Reader(nil).NewNNIterator(q)
}

// NewNNIterator starts an incremental nearest-neighbor scan around q.
func (rd Reader) NewNNIterator(q geom.Point) *NNIterator {
	it := nnIterPool.Get()
	it.rd, it.q, it.closed = rd, q, false
	it.heap.Reset()
	it.ph.Reset()
	if rd.t.size > 0 {
		if rd.p != nil {
			it.pushNodePacked(rd.PackedRoot())
		} else {
			it.pushNode(rd.Root())
		}
	}
	return it
}

func (it *NNIterator) pushNode(nd Node) {
	for _, e := range nd.Entries() {
		if e.IsLeafEntry() {
			it.heap.Push(e, geom.DistSq(it.q, e.Point))
		} else {
			it.heap.Push(e, geom.MinDistSqPointRect(it.q, e.Rect))
		}
	}
}

// Next returns the next nearest point; ok is false when the data set is
// exhausted or the iterator has been closed. The returned Point is valid
// only until the next call to Next or Close (on the packed layout it is
// the iterator's gather scratch); copy it to keep it.
func (it *NNIterator) Next() (Neighbor, bool) {
	if it.closed {
		return Neighbor{}, false
	}
	if it.rd.p != nil {
		return it.nextPacked()
	}
	for {
		item, ok := it.heap.Pop()
		if !ok {
			return Neighbor{}, false
		}
		if item.Value.IsLeafEntry() {
			return Neighbor{
				Point: item.Value.Point,
				ID:    item.Value.ID,
				Dist:  math.Sqrt(item.Priority),
			}, true
		}
		it.pushNode(it.rd.Child(item.Value))
	}
}

// PeekDist returns the lower bound on the distance of the next neighbor
// without advancing; ok is false when exhausted or closed.
func (it *NNIterator) PeekDist() (float64, bool) {
	if it.closed {
		return 0, false
	}
	var d float64
	var ok bool
	if it.rd.p != nil {
		d, ok = it.ph.MinPriority()
	} else {
		d, ok = it.heap.MinPriority()
	}
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
	it.ph.Reset()
	nnIterPool.Put(it)
}
