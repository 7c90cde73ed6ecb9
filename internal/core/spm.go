package core

import (
	"math"

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
	return runKernel(spm, t, qs, opt)
}

func spm(t *rtree.Tree, grp *group, opt Options, best *kbest, ec *ExecContext) error {
	if opt.Aggregate != Sum {
		return ErrUnsupportedAggregate
	}
	// Lemma 1 under weights: w_i·|p q_i| ≥ w_i·(|pq| − |q_i q|), so
	// dist_w(p,Q) ≥ W·|pq| − dist_w(q,Q) with W = Σ w_i. The centroid q
	// may be any point (the unweighted Fermat point is used even for
	// weighted queries — the bound stays sound, only slightly looser).
	q, dq := grp.centroid(opt.Centroid)
	w := grp.w
	n := float64(len(grp.qs))
	if w != nil {
		n = w.sum
	}
	ec.terms = grp.terms(ec.terms.sq)
	if t.Len() > 0 {
		run := spmRun{rd: opt.Packed.Reader(opt.Cost),
			q: q, dq: dq, n: n, w: w, region: opt.Region,
			best: best, ec: ec, cancel: opt.Cancel, trace: opt.Trace}
		if opt.Traversal == DepthFirst {
			run.df(run.rd.PackedRoot(), 0)
		} else {
			run.bf()
		}
	}
	return nil
}

// spmRun carries the per-query state of an SPM traversal.
type spmRun struct {
	rd     rtree.Reader
	q      geom.Point // centroid
	dq     float64    // dist_w(q, Q)
	n      float64    // W = Σ w_i (or n when unweighted)
	w      *weightCtx
	region *geom.Rect
	best   *kbest
	ec     *ExecContext
	cancel *CancelCheck
	trace  *Trace
}

// threshold is the heuristic-1 pruning radius (best_dist+dist(q,Q))/W.
func (r *spmRun) threshold() float64 {
	return (r.best.bound() + r.dq) / r.n
}

// offer evaluates leaf slot s against the region constraint and the
// exact (weighted) group distance.
func (r *spmRun) offer(s int32) {
	p := r.rd.Packed()
	if r.region != nil && !p.PointIn(s, *r.region) {
		return
	}
	if r.trace != nil {
		r.trace.ExactDistances++
	}
	pt := r.ec.gather(p, s)
	r.best.offer(GroupNeighbor{
		Point: pt, ID: p.LeafID(s),
		Dist: aggDistSoA(Sum, pt, &r.ec.terms, r.w),
	})
}

// tracePrunedH1 classifies candidates cut by heuristic 1 into node and
// point counters. Only runs with a trace attached.
func (r *spmRun) tracePrunedH1(cands []rtree.PCand) {
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
// recursion pruned by heuristic 1. The mindist-to-centroid keys of a
// whole node come from one fused pass over the SoA arrays (square rooted
// to the real distances heuristic 1 is stated in); candidates are int32
// refs. Under a region constraint a point outside it is not evaluated
// and a subtree whose rectangle misses it is not entered.
func (r *spmRun) df(nd int32, depth int) {
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
	buf := r.ec.cands.Level(depth)
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
				r.tracePrunedH1(cands[i:])
			}
			return // heuristic 1 prunes this and all later entries
		}
		if slot, isPoint := rtree.RefSlot(c.Ref); isPoint {
			r.offer(slot)
		} else if r.region == nil || p.RectIntersects(slot, *r.region) {
			r.df(r.rd.PackedChild(slot), depth+1)
		}
	}
}

// bf is the best-first variant: a single priority queue (pooled with the
// execution context) over int32 refs keyed by mindist to the centroid;
// the first key that fails heuristic 1 ends the search, since all
// remaining keys are at least as large. Under a region constraint a
// subtree whose rectangle misses it is never enqueued.
func (r *spmRun) bf() {
	p := r.rd.Packed()
	heap := &r.ec.heap
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
			slot := s + int32(i)
			if r.region == nil || p.RectIntersects(slot, *r.region) {
				heap.Push(rtree.NodeRef(slot), math.Sqrt(d[i]))
			}
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
			r.offer(slot)
		} else {
			push(r.rd.PackedChild(slot))
		}
	}
}
