package core

import (
	"slices"

	"gnn/internal/geom"
	"gnn/internal/rtree"
)

// FMBM answers a disk-resident GNN query with F-MBM (§4.3): the traversal
// of the R-tree on P is pruned with the in-memory block summaries (MBR M_i
// and cardinality n_i per block of the Hilbert-sorted query file) and only
// qualifying leaves pay the cost of streaming the query blocks.
//
//   - Heuristic 5: a node N is pruned when its weighted mindist
//     Σ_i n_i·mindist(N,M_i) ≥ best_dist.
//   - Heuristic 6: while a leaf's points accumulate their exact distances
//     group by group, point p_j is dropped as soon as
//     curr_dist(p_j) + Σ_{l≥i} n_l·mindist(p_j,M_l) ≥ best_dist.
//
// Nodes are visited in ascending weighted mindist (best-first by default,
// depth-first per Figure 4.7 on request). At each leaf, groups are read in
// descending mindist(N,M_i) order so far-away groups trigger heuristic 6
// early and spare the exact computations against the remaining groups.
//
// All per-leaf and per-traversal buffers (candidate lists, the suffix-
// bound matrix, the block ordering and the entry heap) are drawn from the
// pooled execution context, so repeated F-MBM queries stop allocating per
// visited node.
//
// SUM aggregate only (the weighted bounds are sums).
func FMBM(t *rtree.Tree, qf *QueryFile, opt Options) (*DiskReport, error) {
	opt, err := opt.diskOptions()
	if err != nil {
		return nil, err
	}
	if !opt.Packed.Valid(t) {
		return nil, ErrNoArena
	}
	ec, owned := opt.exec()
	defer releaseIfOwned(ec, owned)
	f := &fmbmRun{rd: opt.Packed.Reader(opt.Cost),
		qf: qf, opt: opt, best: ec.kbestFor(t, opt.K, opt.Reject), ec: ec, report: &DiskReport{}}
	if t.Len() > 0 {
		if opt.Traversal == DepthFirst {
			rootRect, _ := t.Bounds()
			err = f.df(f.rd.PackedRoot(), rootRect, 0)
		} else {
			err = f.bf()
		}
		if err != nil {
			return nil, err
		}
	}
	f.report.Neighbors = f.best.results()
	f.report.Cost = *opt.Cost
	return f.report, nil
}

type fmbmRun struct {
	rd     rtree.Reader
	qf     *QueryFile
	opt    Options
	best   *kbest
	ec     *ExecContext
	report *DiskReport
}

// orderBlocks returns the query blocks in descending mindist(N, M_i):
// far groups first, so their large exact distances inflate curr_dist
// early and heuristic 6 kills hopeless points before the near (expensive)
// groups. The per-block mindists are computed once into a pooled buffer
// instead of twice per comparison inside the sort closure.
func (f *fmbmRun) orderBlocks(ndRect geom.Rect) []int {
	m := f.qf.NumBlocks()
	f.ec.blockDist = grow(f.ec.blockDist, m)
	blockDist := f.ec.blockDist
	for i := 0; i < m; i++ {
		blockDist[i] = geom.MinDistRectRect(ndRect, f.qf.MBR(i))
	}
	f.ec.order = grow(f.ec.order, m)
	order := f.ec.order
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case blockDist[a] > blockDist[b]:
			return -1
		case blockDist[a] < blockDist[b]:
			return 1
		default:
			return a - b
		}
	})
	return order
}

// fmbmCand is one leaf point whose global distance is being accumulated
// block by block: its leaf slot plus its position within the leaf, which
// indexes the column-major suffix-bound matrix.
type fmbmCand struct {
	slot int32
	idx  int32
	curr float64
}

// weightedMindist computes the heuristic-5 bound Σ_i n_i·mindist(N,M_i)
// for a whole routing-slot range in fused per-block passes over the SoA
// corner arrays, writing dst[i] = Σ_l n_l·mindist(rect_i, M_l).
func (f *fmbmRun) weightedMindist(s, e int32, dst []float64) {
	p := f.rd.Packed()
	lo, hi := p.RectSoA()
	dst = dst[:e-s]
	for i := range dst {
		dst[i] = 0
	}
	for b := 0; b < f.qf.NumBlocks(); b++ {
		geom.AccumWeightedMinDistRectsRect(lo, hi, int(s), int(e),
			float64(f.qf.BlockLen(b)), f.qf.MBR(b), dst)
	}
}

// df is the depth-first variant of Figure 4.7, with per-depth pooled
// candidate buffers and an inlined insertion sort. ndRect is consumed
// only when nd is a leaf (the block-ordering reference).
func (f *fmbmRun) df(nd int32, ndRect geom.Rect, depth int) error {
	p := f.rd.Packed()
	if p.IsLeaf(nd) {
		return f.processLeaf(nd, ndRect)
	}
	s, e := p.NodeRange(nd)
	cnt := int(e - s)
	f.ec.dbuf = grow(f.ec.dbuf, cnt)
	f.weightedMindist(s, e, f.ec.dbuf)
	buf := f.ec.cands.Level(depth)
	cands := *buf
	for i := 0; i < cnt; i++ {
		cands = append(cands, rtree.PCand{Ref: rtree.NodeRef(s + int32(i)), D: f.ec.dbuf[i]})
	}
	rtree.SortPCands(cands)
	*buf = cands
	for i := range cands {
		c := cands[i]
		if c.D >= f.best.bound() {
			return nil // heuristic 5; list is sorted, so stop
		}
		slot, _ := rtree.RefSlot(c.Ref)
		// The child rect is needed only if the child is a leaf; the scratch
		// rect is consumed (or ignored) before any deeper descent reuses it.
		p.RectInto(slot, &f.ec.prect)
		if err := f.df(f.rd.PackedChild(slot), f.ec.prect, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// bf traverses internal routing slots best-first by their fused weighted
// mindist; leaves are processed wholesale when popped.
func (f *fmbmRun) bf() error {
	p := f.rd.Packed()
	root := f.rd.PackedRoot()
	if p.IsLeaf(root) {
		rootRect, _ := p.Bounds()
		return f.processLeaf(root, rootRect)
	}
	heap := &f.ec.heap
	heap.Reset()
	push := func(nd int32) {
		s, e := p.NodeRange(nd)
		cnt := int(e - s)
		f.ec.dbuf = grow(f.ec.dbuf, cnt)
		f.weightedMindist(s, e, f.ec.dbuf)
		for i := 0; i < cnt; i++ {
			heap.Push(rtree.NodeRef(s+int32(i)), f.ec.dbuf[i])
		}
	}
	push(root)
	for {
		item, ok := heap.Pop()
		if !ok {
			return nil
		}
		if item.Priority >= f.best.bound() {
			return nil // heuristic 5 ends the search: all keys are larger
		}
		slot, _ := rtree.RefSlot(item.Value)
		nd := f.rd.PackedChild(slot)
		if p.IsLeaf(nd) {
			p.RectInto(slot, &f.ec.prect)
			if err := f.processLeaf(nd, f.ec.prect); err != nil {
				return err
			}
			continue
		}
		push(nd)
	}
}

// processLeaf accumulates the global distance of the leaf's points over
// all query blocks, applying heuristic 6 before each exact pass. The
// heuristic-6 suffix bounds live in a column-major matrix (column s
// contiguous over the leaf's points) so each block contributes one fused
// unit-stride pass over the SoA point arrays instead of a strided
// per-point loop.
func (f *fmbmRun) processLeaf(nd int32, ndRect geom.Rect) error {
	p := f.rd.Packed()
	f.report.Rounds++
	m := f.qf.NumBlocks()
	order := f.orderBlocks(ndRect)

	s, e := p.NodeRange(nd)
	np := int(e - s)
	// Column-major suffix bounds: lbsT[c*np+i] = Σ_{l≥c in processing
	// order} n_l·mindist(p_i, M_l), with column m all zeros.
	f.ec.lbs = grow(f.ec.lbs, (m+1)*np)
	lbsT := f.ec.lbs
	for i := m * np; i < (m+1)*np; i++ {
		lbsT[i] = 0
	}
	pc := p.PointSoA()
	for c := m - 1; c >= 0; c-- {
		b := order[c]
		geom.AddWeightedMinDistPointsRect(pc, int(s), int(e),
			float64(f.qf.BlockLen(b)), f.qf.MBR(b),
			lbsT[(c+1)*np:(c+2)*np], lbsT[c*np:(c+1)*np])
	}

	f.ec.fcands = grow(f.ec.fcands, np)[:0]
	cands := f.ec.fcands
	for i := 0; i < np; i++ {
		cands = append(cands, fmbmCand{slot: s + int32(i), idx: int32(i)})
	}
	// Points sorted by weighted mindist (= suffix column 0), as in
	// Figure 4.7.
	slices.SortFunc(cands, func(a, b fmbmCand) int {
		la, lb := lbsT[a.idx], lbsT[b.idx]
		switch {
		case la < lb:
			return -1
		case la > lb:
			return 1
		default:
			return 0
		}
	})

	f.ec.keep = grow(f.ec.keep, np)
	survivors := f.ec.keep[:0]
	for i := range cands {
		survivors = append(survivors, i)
	}
	for c := 0; c < m && len(survivors) > 0; c++ {
		// Heuristic 6 before paying for the block read.
		keep := survivors[:0]
		base := c * np
		for _, ci := range survivors {
			if cands[ci].curr+lbsT[base+int(cands[ci].idx)] < f.best.bound() {
				keep = append(keep, ci)
			}
		}
		survivors = keep
		if len(survivors) == 0 {
			break
		}
		blk, err := f.qf.ReadBlock(order[c], f.opt.Cost)
		if err != nil {
			return err
		}
		for _, ci := range survivors {
			cands[ci].curr += geom.SumDist(f.ec.gather(p, cands[ci].slot), blk)
		}
	}
	for _, ci := range survivors {
		f.best.offer(GroupNeighbor{
			Point: f.ec.gather(p, cands[ci].slot),
			ID:    p.LeafID(cands[ci].slot),
			Dist:  cands[ci].curr,
		})
	}
	return nil
}
