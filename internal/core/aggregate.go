package core

import (
	"math"

	"gnn/internal/geom"
	"gnn/internal/pq"
)

// The aggregate family: the one implementation of dist(p,Q) and of its
// lower bounds, called by every kernel.
//
//   - aggDistSoA is the exact aggregate distance agg_j w_j·|p q_j|.
//   - nodeLBSoA is heuristic 3 and its MAX/MIN analogues: the same
//     aggregate over mindist(r, q_j), a lower bound for every p inside r.
//   - quickLBFromMindist is heuristic 2: one mindist to the query MBR,
//     scaled by the aggregate.
//   - combineThresholds folds MQM's per-stream thresholds.
//
// A nil *weightCtx is the unweighted path throughout.
//
// The group is laid out once per query, for all its sources (group.go),
// as per-axis columns (soaGroup), so the per-member loops stream
// contiguous arrays instead of chasing one pointer per member.
// Bit-exactness contract: a member's term is the Sqrt
// of its squared distance, accumulated in ascending axis order (the 2-D
// dx*dx + dy*dy equals the (0+dx²)+dy² accumulation bit for bit, squares
// being non-negative), times its weight, and the terms fold in member
// order. Unweighted MAX and MIN fold the squared terms and take one Sqrt
// of the winner, which is the same value because Sqrt is monotone and
// correctly rounded. The test oracles (scanDists, oracleDist) restate
// this order independently, so a point scores the same whichever kernel
// meets it, and pruning and node-access counts follow. Do not reassociate
// the arithmetic without revisiting them.

// soaGroup is a query group laid out for the aggregate family:
// cols[axis][j] holds coordinate axis of member j, and sq is a
// group-sized scratch column for the per-member terms, each traversal's
// own (group.terms). fill lays both out in one reusable backing.
type soaGroup struct {
	cols [][]float64
	sq   []float64
	flat []float64
}

// fill lays qs out in g, growing the backing as needed, and returns g.
func (g *soaGroup) fill(qs []geom.Point) *soaGroup {
	dim, n := len(qs[0]), len(qs)
	g.flat = grow(g.flat, (dim+1)*n)
	g.cols = grow(g.cols, dim)
	for a := range g.cols {
		col := g.flat[a*n : (a+1)*n]
		for j, q := range qs {
			col[j] = q[a]
		}
		g.cols[a] = col
	}
	g.sq = g.flat[dim*n:]
	return g
}

// release empties g for the pool, dropping a backing above pq.RetainCap.
func (g *soaGroup) release() {
	clear(g.cols[:cap(g.cols)])
	g.sq = nil
	g.flat = pq.Trim(g.flat)
}

// aggDistSoA returns dist(p,Q) = agg_j w_j·|p q_j|. In 2-D one fused loop
// per aggregate computes and folds the terms; writing them to the scratch
// column first costs SPM a measurable share of its time.
func aggDistSoA(a Aggregate, p geom.Point, g *soaGroup, w *weightCtx) float64 {
	if len(g.cols) != 2 {
		geom.DistSqPointsPoint(g.cols, 0, len(g.sq), p, g.sq)
		return foldSq(a, g.sq, w)
	}
	px, py := p[0], p[1]
	qx := g.cols[0]
	qy := g.cols[1][:len(qx)]
	switch a {
	case Max:
		var m float64
		for j := range qx {
			dx, dy := px-qx[j], py-qy[j]
			d := dx*dx + dy*dy
			if w != nil {
				d = w.w[j] * math.Sqrt(d)
			}
			if d > m {
				m = d
			}
		}
		if w == nil {
			return math.Sqrt(m)
		}
		return m
	case Min:
		m := math.Inf(1)
		for j := range qx {
			dx, dy := px-qx[j], py-qy[j]
			d := dx*dx + dy*dy
			if w != nil {
				d = w.w[j] * math.Sqrt(d)
			}
			if d < m {
				m = d
			}
		}
		if w == nil {
			return math.Sqrt(m)
		}
		return m
	default:
		// Unlike MAX and MIN, SUM keeps the weight test out of its loops:
		// they are nearly all of SPM's time, which the test raised ~5%.
		var s float64
		if w == nil {
			for j := range qx {
				dx, dy := px-qx[j], py-qy[j]
				s += math.Sqrt(dx*dx + dy*dy)
			}
			return s
		}
		for j := range qx {
			dx, dy := px-qx[j], py-qy[j]
			s += w.w[j] * math.Sqrt(dx*dx+dy*dy)
		}
		return s
	}
}

// nodeLBSoA is heuristic 3 and its MAX/MIN analogues: since |p q_j| ≥
// mindist(r, q_j) for every p inside r, agg_j w_j·mindist(r, q_j)
// lower-bounds dist(p,Q) there.
func nodeLBSoA(a Aggregate, r geom.Rect, g *soaGroup, w *weightCtx) float64 {
	geom.MinDistSqPointsRect(g.cols, 0, len(g.sq), r, g.sq)
	return foldSq(a, g.sq, w)
}

// foldSq folds the members' squared terms into agg_j w_j·√sq[j].
func foldSq(a Aggregate, sq []float64, w *weightCtx) float64 {
	switch a {
	case Max:
		var m float64
		for j, d := range sq {
			if w != nil {
				d = w.w[j] * math.Sqrt(d)
			}
			if d > m {
				m = d
			}
		}
		if w == nil {
			return math.Sqrt(m)
		}
		return m
	case Min:
		m := math.Inf(1)
		for j, d := range sq {
			if w != nil {
				d = w.w[j] * math.Sqrt(d)
			}
			if d < m {
				m = d
			}
		}
		if w == nil {
			return math.Sqrt(m)
		}
		return m
	default:
		var s float64
		for j, d := range sq {
			d = math.Sqrt(d)
			if w != nil {
				d *= w.w[j]
			}
			s += d
		}
		return s
	}
}

// quickLBFromMindist is heuristic 2 and its MAX/MIN analogues, from a
// mindist d of a point or node to the query MBR: every |p q_j| ≥ d, so
// the weighted sum is ≥ W·d (n·d unweighted), the weighted max ≥
// max(w)·d and the weighted min ≥ min(w)·d. The kernels compute d as the
// Sqrt of their squared sort keys.
func quickLBFromMindist(a Aggregate, d float64, n int, w *weightCtx) float64 {
	if w == nil {
		if a == Sum {
			return float64(n) * d
		}
		return d
	}
	switch a {
	case Max:
		return d * w.max
	case Min:
		return d * w.min
	default:
		return d * w.sum
	}
}

// combineThresholds folds MQM's per-stream thresholds t_j into the global
// threshold T = agg_j(w_j·t_j): every unseen point p has |p q_j| ≥ t_j,
// hence dist(p,Q) ≥ T.
func combineThresholds(a Aggregate, ts []float64, w *weightCtx) float64 {
	var t float64
	if a == Min {
		t = math.Inf(1)
	}
	for j, v := range ts {
		if w != nil {
			v *= w.w[j]
		}
		switch a {
		case Max:
			if v > t {
				t = v
			}
		case Min:
			if v < t {
				t = v
			}
		default:
			t += v
		}
	}
	return t
}
