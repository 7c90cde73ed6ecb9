package core

import (
	"math"

	"gnn/internal/geom"
)

// The dedicated aggregate-MAX path. The MAX aggregate has structure the
// generic per-member bounds cannot see: dist_max(p,Q) is governed by the
// minimum enclosing ball (c*, r*) of Q, and for any p
//
//	dist_max(p,Q)² ≥ |p−c*|² + r*²
//
// (see geom.MEBScratch). Heuristics 2 and 3 collapse to zero for
// nodes overlapping the group's hull — exactly where the MAX answer
// lives, since best_dist ≥ r* always — while the MEB bound stays ≥ r*
// there. The kernels therefore keep their traversal order and existing
// bounds untouched and add the MEB bound as one more O(d) check: the
// depth-first MBM skips (never re-orders) additionally pruned nodes and
// points, and the best-first iterator raises its heap keys to
// max(heuristic-2 key, MEB bound). Pruning is strictly added and keys are
// only raised, so the dedicated kernel's node accesses are never above
// the generic path's; results are bit-identical because every pruned
// candidate provably ranks at or beyond the pruning bound, where the
// result accumulator would reject it anyway.
//
// Options.GenericMax keeps the generic path selectable for differential
// testing and benchmarking.

// mebSlackRel is the relative deflation applied to the MEB bound in
// distance space. The derivation above is exact for the exact MEB center;
// the computed center deviates by floating-point solve error, which
// perturbs the bound proportionally to |p−c| + r. Deflating by
// 1e-6·(1 + |c| + r) absorbs that deviation with orders of magnitude to
// spare while costing pruning power only in a vanishingly thin shell.
// Deflation is always safe: a weaker bound prunes less, never wrongly.
const mebSlackRel = 1e-6

// mebCtx is the per-query pruning context of the dedicated MAX kernel.
// Its zero value is inert; init arms it. The prepared group holds it
// (group.mebFor).
type mebCtx struct {
	c     geom.Point // MEB center (view into the owning scratch)
	rhoSq float64    // min squared center-to-support distance
	slack float64    // distance-space deflation (see mebSlackRel)
	wmin  float64    // weighted MAX: max_i w_i·|pq_i| ≥ w_min·(MEB bound)
}

// MEBEnabled reports whether MBM runs the dedicated MAX path on a group
// of n points: the MAX aggregate, not forced generic, and a group of at
// least two points (a singleton's MEB bound degenerates to the existing
// heuristics). Query explain reports the kernel from it.
func (o Options) MEBEnabled(n int) bool {
	return o.Aggregate == Max && !o.GenericMax && n >= 2
}

// init computes the group's MEB into the scratch and derives the bound
// ingredients. rhoSq is the smallest squared center-to-support distance
// (not the radius): the certificate |p−s|² ≥ |p−c|² + |s−c|² holds for
// some support point s, so only the minimum is guaranteed.
func (m *mebCtx) init(s *geom.MEBScratch, qs []geom.Point, w *weightCtx) {
	ball := s.MinEnclosingBall(qs)
	m.c = ball.Center
	rho := math.Inf(1)
	for _, sp := range ball.Support {
		if d := geom.DistSq(sp, ball.Center); d < rho {
			rho = d
		}
	}
	if math.IsInf(rho, 1) {
		rho = 0
	}
	m.rhoSq = rho
	var cSq float64
	for _, v := range ball.Center {
		cSq += v * v
	}
	m.slack = mebSlackRel * (1 + math.Sqrt(cSq) + math.Sqrt(rho))
	m.wmin = 1
	if w != nil {
		m.wmin = w.min
	}
}

// fromMindistSq turns a squared lower bound on |p−c| (mindist of a node
// rectangle, or the exact squared distance of a data point) into a lower
// bound on the aggregate MAX distance of any such p.
func (m *mebCtx) fromMindistSq(msq float64) float64 {
	b := math.Sqrt(msq+m.rhoSq) - m.slack
	if b <= 0 {
		return 0
	}
	return m.wmin * b
}

// nodeBound lower-bounds dist_max(p,Q) over all p inside r.
func (m *mebCtx) nodeBound(r geom.Rect) float64 {
	return m.fromMindistSq(geom.MinDistSqPointRect(m.c, r))
}

// pointBound lower-bounds dist_max(p,Q) for the data point p.
func (m *mebCtx) pointBound(p geom.Point) float64 {
	return m.fromMindistSq(geom.DistSq(p, m.c))
}
