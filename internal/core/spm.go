package core

import (
	"math"

	"gnn/internal/centroid"
	"gnn/internal/geom"
	"gnn/internal/rtree"
)

// SPM answers a GNN query with the single point method (§3.2): one
// traversal of the R-tree ordered by distance from the (approximate) group
// centroid q, pruned with heuristic 1, which follows from Lemma 1:
//
//	dist(p,Q) ≥ n·|pq| − dist(q,Q)        for every point p,
//
// so a node N (or point p) cannot improve on best_dist when
//
//	mindist(N,q) ≥ (best_dist + dist(q,Q)) / n.
//
// The lemma is specific to the SUM aggregate; SPM returns
// ErrUnsupportedAggregate for MAX and MIN.
func SPM(t *rtree.Tree, qs []geom.Point, opt Options) ([]GroupNeighbor, error) {
	opt = opt.withDefaults()
	if err := validate(t, qs, opt); err != nil {
		return nil, err
	}
	if opt.Aggregate != Sum {
		return nil, ErrUnsupportedAggregate
	}
	w, err := newWeightCtx(opt.Weights, len(qs))
	if err != nil {
		return nil, err
	}
	q, _, err := spmCentroid(qs, opt.Centroid)
	if err != nil {
		return nil, err
	}
	// Lemma 1 under weights: w_i·|p q_i| ≥ w_i·(|pq| − |q_i q|), so
	// dist_w(p,Q) ≥ W·|pq| − dist_w(q,Q) with W = Σ w_i. The centroid q
	// may be any point (the unweighted Fermat point is used even for
	// weighted queries — the bound stays sound, only slightly looser).
	dq := aggDistW(Sum, q, qs, w)
	n := float64(len(qs))
	if w != nil {
		n = w.sum
	}
	ec, owned := opt.exec()
	defer releaseIfOwned(ec, owned)
	best := ec.kbestShared(t, opt.K, opt.Shared, opt.Reject)
	if t.Len() > 0 {
		run := spmRun{rd: rtree.ReaderOver(t, opt.packedFor(t, false), opt.Cost),
			qs: qs, gq: ec.groupSoA(qs), q: q, dq: dq, n: n, w: w, region: opt.Region,
			best: best, ec: ec, cancel: opt.Cancel, trace: opt.Trace}
		switch {
		case run.rd.Packed() != nil && opt.Traversal == DepthFirst:
			run.dfPacked(run.rd.PackedRoot(), 0)
		case run.rd.Packed() != nil:
			run.bfPacked()
		case opt.Traversal == DepthFirst:
			run.df(run.rd.Root(), 0)
		default:
			run.bf()
		}
	}
	if err := opt.Cancel.Failure(); err != nil {
		return nil, err
	}
	return best.results(), nil
}

// spmRun carries the per-query state of an SPM traversal.
type spmRun struct {
	rd     rtree.Reader
	qs     []geom.Point
	gq     [][]float64 // SoA copy of qs for the exact-distance loop
	q      geom.Point  // centroid
	dq     float64     // dist_w(q, Q)
	n      float64     // W = Σ w_i (or n when unweighted)
	w      *weightCtx
	region *geom.Rect
	best   *kbest
	ec     *ExecContext
	cancel *CancelCheck
	trace  *Trace
}

// spmCentroid computes the approximate centroid and its dist(q,Q).
func spmCentroid(qs []geom.Point, m CentroidMethod) (geom.Point, float64, error) {
	switch m {
	case Weiszfeld:
		q, d, err := centroid.Weiszfeld(qs, centroid.Options{})
		return q, d, err
	case ArithmeticMean:
		q, err := centroid.Mean(qs)
		if err != nil {
			return nil, 0, err
		}
		return q, geom.SumDist(q, qs), nil
	default:
		q, d, err := centroid.GradientDescent(qs, centroid.Options{})
		return q, d, err
	}
}

// threshold is the heuristic-1 pruning radius (best_dist+dist(q,Q))/W.
func (r *spmRun) threshold() float64 {
	return (r.best.bound() + r.dq) / r.n
}

// offer evaluates a data point against the region constraint and the
// exact (weighted) group distance.
func (r *spmRun) offer(e rtree.Entry) {
	if !regionAllows(r.region, e.Point) {
		return
	}
	if r.trace != nil {
		r.trace.ExactDistances++
	}
	r.best.offer(GroupNeighbor{
		Point: e.Point, ID: e.ID,
		Dist: aggDistSoA(Sum, e.Point, r.gq, r.w),
	})
}

// tracePrunedH1 classifies candidates cut by heuristic 1 into node and
// point counters. Only runs with a trace attached.
func (r *spmRun) tracePrunedH1(cands []rtree.Cand) {
	for i := range cands {
		if cands[i].E.IsLeafEntry() {
			r.trace.PointsPrunedH1++
		} else {
			r.trace.NodesPrunedH1++
		}
	}
}

// tracePrunedH1Packed is tracePrunedH1 over packed int32 refs.
func (r *spmRun) tracePrunedH1Packed(cands []rtree.PCand) {
	for i := range cands {
		if _, isPoint := rtree.RefSlot(cands[i].Ref); isPoint {
			r.trace.PointsPrunedH1++
		} else {
			r.trace.NodesPrunedH1++
		}
	}
}

// df is the depth-first variant of Figure 3.4: entries sorted by mindist
// to the centroid (per-depth pooled buffer, inlined insertion sort),
// recursion pruned by heuristic 1.
func (r *spmRun) df(nd rtree.Node, depth int) {
	if r.cancel.Stop() {
		return
	}
	if r.trace != nil {
		r.trace.NodesVisited++
	}
	buf := r.ec.cands.Level(depth)
	cands := *buf
	for _, e := range nd.Entries() {
		var d float64 // mindist(entry, centroid)
		if e.IsLeafEntry() {
			d = geom.Dist(r.q, e.Point)
		} else {
			d = geom.MinDistPointRect(r.q, e.Rect)
		}
		cands = append(cands, rtree.Cand{E: e, D: d})
	}
	rtree.SortCands(cands)
	*buf = cands
	for i := range cands {
		c := cands[i]
		if c.D >= r.threshold() {
			if r.trace != nil {
				r.tracePrunedH1(cands[i:])
			}
			return // heuristic 1 prunes this and all later entries
		}
		if c.E.IsLeafEntry() {
			r.offer(c.E)
		} else if regionIntersects(r.region, c.E.Rect) {
			r.df(r.rd.Child(c.E), depth+1)
		}
	}
}

// dfPacked is df over the packed arena: the mindist-to-centroid keys of a
// whole node come from one fused pass over the SoA arrays (square rooted
// to the real distances heuristic 1 is stated in), candidates are int32
// refs. The packed path runs only for unconstrained queries, so the
// region checks of df vanish rather than branch.
func (r *spmRun) dfPacked(nd int32, depth int) {
	if r.cancel.Stop() {
		return
	}
	if r.trace != nil {
		r.trace.NodesVisited++
	}
	p := r.rd.Packed()
	s, e := p.NodeRange(nd)
	cnt := int(e - s)
	r.ec.dbuf = grow(r.ec.dbuf, cnt)
	d := r.ec.dbuf
	leaf := p.IsLeaf(nd)
	if leaf {
		geom.DistSqPointsPoint(p.PointSoA(), int(s), int(e), r.q, d)
	} else {
		lo, hi := p.RectSoA()
		geom.MinDistSqRectsPoint(lo, hi, int(s), int(e), r.q, d)
	}
	buf := r.ec.pcands.Level(depth)
	cands := *buf
	for i := 0; i < cnt; i++ {
		ref := rtree.LeafRef(s + int32(i))
		if !leaf {
			ref = rtree.NodeRef(s + int32(i))
		}
		cands = append(cands, rtree.PCand{Ref: ref, D: math.Sqrt(d[i])})
	}
	rtree.SortPCands(cands)
	*buf = cands
	for i := range cands {
		c := cands[i]
		if c.D >= r.threshold() {
			if r.trace != nil {
				r.tracePrunedH1Packed(cands[i:])
			}
			return // heuristic 1 prunes this and all later entries
		}
		if slot, isPoint := rtree.RefSlot(c.Ref); isPoint {
			if r.trace != nil {
				r.trace.ExactDistances++
			}
			pt := r.ec.gather(p, slot)
			r.best.offer(GroupNeighbor{
				Point: pt, ID: p.LeafID(slot),
				Dist: aggDistSoA(Sum, pt, r.gq, r.w),
			})
		} else {
			r.dfPacked(r.rd.PackedChild(slot), depth+1)
		}
	}
}

// bfPacked is bf over the packed arena, with the int32 ref heap.
func (r *spmRun) bfPacked() {
	p := r.rd.Packed()
	heap := &r.ec.peheap
	heap.Reset()
	push := func(nd int32) {
		if r.trace != nil {
			r.trace.NodesVisited++
		}
		s, e := p.NodeRange(nd)
		cnt := int(e - s)
		r.ec.dbuf = grow(r.ec.dbuf, cnt)
		d := r.ec.dbuf
		if p.IsLeaf(nd) {
			geom.DistSqPointsPoint(p.PointSoA(), int(s), int(e), r.q, d)
			for i := 0; i < cnt; i++ {
				heap.Push(rtree.LeafRef(s+int32(i)), math.Sqrt(d[i]))
			}
			return
		}
		lo, hi := p.RectSoA()
		geom.MinDistSqRectsPoint(lo, hi, int(s), int(e), r.q, d)
		for i := 0; i < cnt; i++ {
			heap.Push(rtree.NodeRef(s+int32(i)), math.Sqrt(d[i]))
		}
	}
	push(r.rd.PackedRoot())
	for {
		if r.cancel.Stop() {
			return
		}
		item, ok := heap.Pop()
		if !ok {
			return
		}
		if item.Priority >= r.threshold() {
			if r.trace != nil {
				// Everything still enqueued has a key at least as large, so
				// the whole frontier is pruned by heuristic 1; drain it into
				// the counters (tracing only — the heap is pooled and Reset
				// on next use either way).
				for ok {
					if _, isPoint := rtree.RefSlot(item.Value); isPoint {
						r.trace.PointsPrunedH1++
					} else {
						r.trace.NodesPrunedH1++
					}
					item, ok = heap.Pop()
				}
			}
			return
		}
		if slot, isPoint := rtree.RefSlot(item.Value); isPoint {
			if r.trace != nil {
				r.trace.ExactDistances++
			}
			pt := r.ec.gather(p, slot)
			r.best.offer(GroupNeighbor{
				Point: pt, ID: p.LeafID(slot),
				Dist: aggDistSoA(Sum, pt, r.gq, r.w),
			})
		} else {
			push(r.rd.PackedChild(slot))
		}
	}
}

// bf is the best-first variant: a single priority queue (pooled with the
// execution context) over entries keyed by mindist to the centroid; the
// first key that fails heuristic 1 ends the search, since all remaining
// keys are at least as large.
func (r *spmRun) bf() {
	heap := &r.ec.eheap
	heap.Reset()
	push := func(nd rtree.Node) {
		if r.trace != nil {
			r.trace.NodesVisited++
		}
		for _, e := range nd.Entries() {
			if e.IsLeafEntry() {
				heap.Push(e, geom.Dist(r.q, e.Point))
			} else if regionIntersects(r.region, e.Rect) {
				heap.Push(e, geom.MinDistPointRect(r.q, e.Rect))
			}
		}
	}
	push(r.rd.Root())
	for {
		if r.cancel.Stop() {
			return
		}
		item, ok := heap.Pop()
		if !ok {
			return
		}
		if item.Priority >= r.threshold() {
			if r.trace != nil {
				// The frontier's keys are all ≥ this one: heuristic 1 prunes
				// every remaining entry (see bfPacked).
				for ok {
					if item.Value.IsLeafEntry() {
						r.trace.PointsPrunedH1++
					} else {
						r.trace.NodesPrunedH1++
					}
					item, ok = heap.Pop()
				}
			}
			return
		}
		if item.Value.IsLeafEntry() {
			r.offer(item.Value)
		} else {
			push(r.rd.Child(item.Value))
		}
	}
}
