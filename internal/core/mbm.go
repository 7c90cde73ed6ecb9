package core

import (
	"math"

	"gnn/internal/geom"
	"gnn/internal/pq"
	"gnn/internal/rtree"
)

// MBM answers a GNN query with the minimum bounding method (§3.3): a
// single traversal pruned by the MBR M of the query group.
//
//   - Heuristic 2 (cheap, one distance computation): prune node N when
//     mindist(N,M) ≥ best_dist / n.
//   - Heuristic 3 (tight, n computations, applied only to nodes that
//     survive heuristic 2): prune N when Σ_i mindist(N,q_i) ≥ best_dist.
//
// The same bounds generalised to MAX/MIN make MBM work for the extension
// aggregates. Options.DisableHeuristic3 reproduces the §5.1 footnote-3
// ablation. The best-first variant is built on the incremental iterator
// below; the depth-first variant follows Figure 3.7.
//
// Both variants traverse the packed arena (Options.Packed) and draw their
// scratch (candidate buffers, result list, query MBR corners, heaps) from
// the pooled execution context, so a warm query allocates only its
// results: the slice and the slab of their points. A region constraint
// (Options.Region) prunes every entry that cannot hold a qualifying point.
func MBM(t *rtree.Tree, qs []geom.Point, opt Options) ([]GroupNeighbor, error) {
	opt = opt.withDefaults()
	if err := validate(t, qs, opt); err != nil {
		return nil, err
	}
	if t.Len() == 0 {
		return nil, nil
	}
	ec, owned := opt.exec()
	defer releaseIfOwned(ec, owned)
	if opt.Traversal == DepthFirst {
		w, err := newWeightCtx(opt.Weights, len(qs))
		if err != nil {
			return nil, err
		}
		best := ec.kbestShared(t, opt.K, opt.Shared, opt.Reject)
		st := mbmState{
			rd:   opt.Packed.Reader(opt.Cost),
			qs:   qs,
			g:    ec.grp.fill(qs),
			qmbr: ec.boundingRect(qs),
			w:    w,
			opt:  opt,
			best: best,
			ec:   ec,
		}
		st.qcent = ec.centerOf(st.qmbr)
		if opt.MEBEnabled(len(qs)) {
			st.meb = ec.mebFor(qs, w)
		}
		st.df(st.rd.PackedRoot(), 0)
		if err := opt.Cancel.Failure(); err != nil {
			return nil, err
		}
		return best.results(), nil
	}
	it, err := NewGNNIterator(t, qs, opt)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	best := ec.kbestShared(t, opt.K, opt.Shared, opt.Reject)
	for len(best.items) < opt.K {
		// The iterator emits in ascending order, so once its lower bound
		// reaches the pruning bound nothing ahead can improve the result.
		// For a standalone query the bound stays +Inf until k results are
		// in hand and the check never fires; for a sharded query it stops
		// the scan as soon as other shards have sealed the answer.
		if d, ok := it.PeekDist(); !ok || d >= best.bound() {
			break
		}
		g, ok := it.Next()
		if !ok {
			break
		}
		best.offer(g)
	}
	// A canceled iterator reports exhaustion; surface the latched error.
	if err := opt.Cancel.Failure(); err != nil {
		return nil, err
	}
	if tr := opt.Trace; tr != nil {
		it.drainPruneCounts(tr)
	}
	return best.results(), nil
}

// drainPruneCounts classifies everything still queued when best-first
// MBM stops. Best-first search prunes implicitly — an entry whose
// heuristic-2 or -3 key never beat the kth distance simply stays in the
// heap — so the surviving items are exactly the candidates the bounds
// discarded. The census walks the heaps' backing arrays in place
// (classification needs no priority order), so it costs one linear read
// rather than a destructive pop-all; Close resets the heaps either way.
func (it *GNNIterator) drainPruneCounts(tr *Trace) {
	for _, item := range it.heap.Items() {
		switch item.Value.state {
		case nodeCheap:
			tr.NodesPrunedH2++
		case nodeTight:
			tr.NodesPrunedH3++
		case pointCheap:
			tr.PointsPrunedQuick++
		}
	}
}

// mbmState carries the per-query state of a depth-first MBM traversal.
type mbmState struct {
	rd    rtree.Reader
	qs    []geom.Point
	g     *soaGroup // the query group, for the exact distance and heuristic 3
	qmbr  geom.Rect
	qcent geom.Point // centre of qmbr — the tie-break reference
	meb   *mebCtx    // dedicated aggregate-MAX bound; nil on the generic path
	w     *weightCtx
	opt   Options
	best  *kbest
	ec    *ExecContext
}

// df is the depth-first MBM of Figure 3.7: entries sorted by mindist to
// the query MBR; heuristic 2 ends the scan of the sorted list (monotone in
// the sort key), heuristic 3 skips individual surviving nodes. The
// per-node sort key (squared mindist to the query MBR — same order, since
// squaring is monotone) and its centre-distance tie-break both come from
// fused passes over the SoA coordinate arrays; candidates are 4-byte refs
// sorted by an inlined insertion sort over a per-depth pooled buffer, and
// the heuristic-2 bound is derived from the sort key with a single Sqrt.
// Under a region constraint, entries that cannot hold a qualifying point
// never become candidates.
func (st *mbmState) df(nd int32, depth int) {
	if st.opt.Cancel.Stop() {
		return
	}
	p := st.rd.Packed()
	s, e := p.NodeRange(nd)
	cnt := int(e - s)
	st.ec.dbuf = grow(st.ec.dbuf, cnt)
	st.ec.dbuf2 = grow(st.ec.dbuf2, cnt)
	d, d2 := st.ec.dbuf, st.ec.dbuf2
	leaf := p.IsLeaf(nd)
	if leaf {
		pc := p.PointSoA()
		geom.MinDistSqPointsRect(pc, int(s), int(e), st.qmbr, d)
		geom.DistSqPointsPoint(pc, int(s), int(e), st.qcent, d2)
	} else {
		lo, hi := p.RectSoA()
		geom.MinDistSqRectsRect(lo, hi, int(s), int(e), st.qmbr, d)
		geom.MinDistSqRectsPoint(lo, hi, int(s), int(e), st.qcent, d2)
	}
	buf := st.ec.cands.Level(depth)
	cands := *buf
	region := st.opt.Region
	for i := 0; i < cnt; i++ {
		slot := s + int32(i)
		ref := rtree.LeafRef(slot)
		if !leaf {
			ref = rtree.NodeRef(slot)
		}
		if region != nil && (leaf && !p.PointIn(slot, *region) || !leaf && !p.RectIntersects(slot, *region)) {
			continue // constrained query: entry holds no qualifying point
		}
		cands = append(cands, rtree.PCand{Ref: ref, D: d[i], D2: d2[i]})
	}
	rtree.SortPCands(cands)
	*buf = cands
	n := len(st.qs)
	for i := range cands {
		c := cands[i]
		// Heuristic 2 from the sort key: √key is the mindist to the query
		// MBR bit for bit, because every mindist function is defined as
		// the Sqrt of its squared variant.
		lb := quickLBFromMindist(st.opt.Aggregate, math.Sqrt(c.D), n, st.w)
		slot, isPoint := rtree.RefSlot(c.Ref)
		if isPoint {
			// Heuristic 2 on points: mindist(p,M) ≥ best_dist/n discards
			// p without computing n exact distances; monotone in the sort
			// key, so all later entries are discarded too.
			if lb >= st.best.bound() {
				st.opt.Trace.add(func(tr *Trace) { tr.PointsPrunedQuick++ })
				return
			}
			pt := st.ec.gather(p, slot)
			if st.meb != nil && st.meb.pointBound(pt) >= st.best.bound() {
				st.opt.Trace.add(func(tr *Trace) { tr.PointsPrunedMEB++ })
				continue // MEB point bound: skip the n exact distances
			}
			st.opt.Trace.add(func(tr *Trace) { tr.ExactDistances++ })
			st.best.offer(GroupNeighbor{
				Point: pt, ID: p.LeafID(slot),
				Dist: aggDistSoA(st.opt.Aggregate, pt, st.g, st.w),
			})
			continue
		}
		if lb >= st.best.bound() {
			st.opt.Trace.add(func(tr *Trace) { tr.NodesPrunedH2++ })
			return // heuristic 2: this and all later nodes pruned
		}
		if st.meb != nil || !st.opt.DisableHeuristic3 {
			p.RectInto(slot, &st.ec.prect)
		}
		if st.meb != nil && st.meb.nodeBound(st.ec.prect) >= st.best.bound() {
			st.opt.Trace.add(func(tr *Trace) { tr.NodesPrunedMEB++ })
			continue // MEB node bound: skip just this node (order unchanged)
		}
		if !st.opt.DisableHeuristic3 {
			if nodeLBSoA(st.opt.Aggregate, st.ec.prect, st.g, st.w) >= st.best.bound() {
				st.opt.Trace.add(func(tr *Trace) { tr.NodesPrunedH3++ })
				continue // heuristic 3: skip just this node
			}
		}
		st.opt.Trace.add(func(tr *Trace) { tr.NodesVisited++ })
		st.df(st.rd.PackedChild(slot), depth+1)
	}
}

// GNNIterator reports data points in ascending aggregate distance from the
// query group, one at a time — incremental MBM. F-MQM consumes it per
// query block (§4.2); it is also the engine of best-first MBM.
//
// The iterator is a lazy best-first search. Heap entries carry
// progressively tighter keys:
//
//	node/cheap  — heuristic-2 bound (one distance computation)
//	node/tight  — heuristic-3 bound (n computations, only when the node
//	              reaches the heap top and heuristic 3 is enabled)
//	point/cheap — heuristic-2 point bound
//	point/exact — the true dist(p,Q); popping this yields a result
//
// Because every key lower-bounds the exact distance of everything beneath
// it, results emerge in exact ascending order while far nodes and points
// never pay the n-distance computation.
//
// Iterators (and their heaps and MBR corners) are drawn from a pool;
// callers that finish early should Close the iterator so its scratch is
// recycled. Forgetting to Close costs only the reuse, never correctness.
//
// An emitted point is gathered into the iterator's scratch, so a result's
// Point is valid only until the next Next or Close; consumers that keep
// results (the result accumulator, the public iterator) copy it.
type GNNIterator struct {
	rd     rtree.Reader
	qs     []geom.Point
	qmbr   geom.Rect
	opt    Options
	w      *weightCtx
	grp    soaGroup         // the query group, for the exact distance and heuristic 3
	heap   pq.Heap[gnnItem] // 8-byte items, fused keys
	dbuf   []float64        // fused-kernel distance buffer
	dbuf2  []float64        // fused MEB-bound buffer
	prect  geom.Rect        // spare rect for the heuristic-3 bound
	pt     geom.Point       // leaf-point gather scratch
	mebs   geom.MEBScratch  // dedicated aggregate-MAX solver scratch
	meb    mebCtx
	mebp   *mebCtx // armed (&meb) on the dedicated MAX path, else nil
	closed bool
}

var gnnIterPool = pq.NewPool(func() *GNNIterator { return &GNNIterator{} })

type gnnState int8

const (
	nodeCheap gnnState = iota
	nodeTight
	pointCheap
	pointExact
)

// gnnItem is one heap entry: an int32 ref and its key's state, so the
// lazy best-first heap stays within a few cache lines even at its
// high-water mark.
type gnnItem struct {
	ref   rtree.PackedRef
	state gnnState
}

// NewGNNIterator starts an incremental GNN scan of t around qs. The
// iterator owns its scratch (it does not borrow Options.Exec, so any
// number of iterators — F-MQM runs one per query block — may coexist
// within one query).
func NewGNNIterator(t *rtree.Tree, qs []geom.Point, opt Options) (*GNNIterator, error) {
	opt = opt.withDefaults()
	if err := validate(t, qs, opt); err != nil {
		return nil, err
	}
	w, err := newWeightCtx(opt.Weights, len(qs))
	if err != nil {
		return nil, err
	}
	it := gnnIterPool.Get()
	it.rd = opt.Packed.Reader(opt.Cost)
	it.qs = qs
	it.grp.fill(qs)
	it.qmbr = geom.BoundingRectInto(it.qmbr, qs)
	it.opt = opt
	it.w = w
	it.mebp = nil
	if opt.MEBEnabled(len(qs)) {
		it.meb.init(&it.mebs, qs, w)
		it.mebp = &it.meb
	}
	it.closed = false
	it.heap.Reset()
	if t.Len() > 0 {
		it.pushNode(it.rd.PackedRoot())
	}
	return it, nil
}

// pushNode enqueues node nd's slots with their heuristic-2 keys, derived
// from one fused mindist pass over the SoA arrays. Under a region
// constraint, entries that cannot hold a qualifying point are skipped.
func (it *GNNIterator) pushNode(nd int32) {
	p := it.rd.Packed()
	s, e := p.NodeRange(nd)
	cnt := int(e - s)
	it.dbuf = grow(it.dbuf, cnt)
	n := len(it.qs)
	region := it.opt.Region
	if p.IsLeaf(nd) {
		geom.MinDistSqPointsRect(p.PointSoA(), int(s), int(e), it.qmbr, it.dbuf)
		if it.mebp != nil {
			// Dedicated MAX path: one more fused pass yields the squared
			// center distances, and each key is raised to the MEB bound.
			// Keys only rise, and every key still lower-bounds the exact
			// distance, so emission order stays exact while far
			// candidates surface later — or never.
			it.dbuf2 = grow(it.dbuf2, cnt)
			geom.DistSqPointsPoint(p.PointSoA(), int(s), int(e), it.mebp.c, it.dbuf2)
		}
		for i := 0; i < cnt; i++ {
			slot := s + int32(i)
			if region != nil && !p.PointIn(slot, *region) {
				continue
			}
			key := quickLBFromMindist(it.opt.Aggregate, math.Sqrt(it.dbuf[i]), n, it.w)
			if it.mebp != nil {
				if mb := it.mebp.fromMindistSq(it.dbuf2[i]); mb > key {
					key = mb
				}
			}
			it.heap.Push(gnnItem{rtree.LeafRef(slot), pointCheap}, key)
		}
		return
	}
	lo, hi := p.RectSoA()
	geom.MinDistSqRectsRect(lo, hi, int(s), int(e), it.qmbr, it.dbuf)
	if it.mebp != nil {
		it.dbuf2 = grow(it.dbuf2, cnt)
		geom.MinDistSqRectsPoint(lo, hi, int(s), int(e), it.mebp.c, it.dbuf2)
	}
	for i := 0; i < cnt; i++ {
		slot := s + int32(i)
		if region != nil && !p.RectIntersects(slot, *region) {
			continue
		}
		key := quickLBFromMindist(it.opt.Aggregate, math.Sqrt(it.dbuf[i]), n, it.w)
		if it.mebp != nil {
			if mb := it.mebp.fromMindistSq(it.dbuf2[i]); mb > key {
				key = mb
			}
		}
		it.heap.Push(gnnItem{rtree.NodeRef(slot), nodeCheap}, key)
	}
}

// Next returns the next group nearest neighbor; ok is false when the data
// set is exhausted or the iterator has been closed. The returned Point is
// valid only until the next call to Next or Close; copy it to keep it.
func (it *GNNIterator) Next() (GroupNeighbor, bool) {
	if it.closed {
		return GroupNeighbor{}, false
	}
	p := it.rd.Packed()
	for {
		if it.opt.Cancel.Stop() {
			return GroupNeighbor{}, false
		}
		item, ok := it.heap.Pop()
		if !ok {
			return GroupNeighbor{}, false
		}
		slot, _ := rtree.RefSlot(item.Value.ref)
		switch item.Value.state {
		case pointExact:
			it.pt = p.PointInto(slot, it.pt)
			return GroupNeighbor{
				Point: it.pt,
				ID:    p.LeafID(slot),
				Dist:  item.Priority,
			}, true
		case pointCheap:
			it.pt = p.PointInto(slot, it.pt)
			if rej := it.opt.Reject; rej != nil && rej(it.pt, p.LeafID(slot)) {
				continue // tombstoned: drop before the exact-distance stage
			}
			it.opt.Trace.add(func(tr *Trace) { tr.ExactDistances++ })
			exact := aggDistSoA(it.opt.Aggregate, it.pt, &it.grp, it.w)
			it.heap.Push(gnnItem{item.Value.ref, pointExact}, exact)
		case nodeCheap:
			if !it.opt.DisableHeuristic3 {
				p.RectInto(slot, &it.prect)
				tight := nodeLBSoA(it.opt.Aggregate, it.prect, &it.grp, it.w)
				if tight > item.Priority {
					it.heap.Push(gnnItem{item.Value.ref, nodeTight}, tight)
					continue
				}
			}
			it.opt.Trace.add(func(tr *Trace) { tr.NodesVisited++ })
			it.pushNode(it.rd.PackedChild(slot))
		case nodeTight:
			it.opt.Trace.add(func(tr *Trace) { tr.NodesVisited++ })
			it.pushNode(it.rd.PackedChild(slot))
		}
	}
}

// PeekDist returns a lower bound on the distance of the next result; ok is
// false when exhausted or closed.
func (it *GNNIterator) PeekDist() (float64, bool) {
	if it.closed {
		return 0, false
	}
	return it.heap.MinPriority()
}

// Close releases the iterator's scratch to the pool. Call it at most
// once, and do not use the iterator afterwards: once the object is
// re-leased to another query, the closed flag belongs to the new owner,
// so a stale handle's second Close (or Next) would corrupt that query.
// The public gnn.Iterator wrapper tracks its own done state for exactly
// this reason.
func (it *GNNIterator) Close() {
	if it == nil || it.closed {
		return
	}
	it.closed = true
	it.rd = rtree.Reader{}
	it.qs = nil
	it.grp.release()
	it.opt = Options{}
	it.w = nil
	it.mebp = nil
	it.meb = mebCtx{}
	it.mebs.Reset()
	it.heap.Reset()
	gnnIterPool.Put(it)
}
