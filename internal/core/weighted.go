package core

import (
	"fmt"
	"math"

	"gnn/internal/geom"
)

// This file extends the paper's framework along two axes it flags as
// future work (§6):
//
//   - Weighted groups: dist(p,Q) = Σ_i w_i·|p q_i| (or the weighted
//     max/min). A user who must drive counts more than one who walks; a
//     pin on a critical net counts more than a relaxed one. Every bound
//     generalises: the triangle inequality scales by w_i, so Lemma 1
//     becomes dist_w(p,Q) ≥ W·|pq| − dist_w(q,Q) with W = Σ w_i, and the
//     heuristics 2/3 bounds pick up the corresponding weight factors.
//
//   - Constrained regions: only data points inside a rectangle qualify
//     (cf. constrained NN search [FSAA01]). MBM prunes non-intersecting
//     subtrees outright; MQM and SPM filter candidate points, which keeps
//     their termination arguments intact (thresholds still lower-bound
//     the distance of every unseen point, qualifying or not).

// weightCtx precomputes the weight reductions the bounds need. A nil
// *weightCtx means the unweighted query, and every helper accepts it.
type weightCtx struct {
	w             []float64
	sum, max, min float64
}

// newWeightCtx validates weights against the group size. nil weights
// yield a nil context (unweighted fast path).
func newWeightCtx(w []float64, n int) (*weightCtx, error) {
	if w == nil {
		return nil, nil
	}
	if len(w) != n {
		return nil, fmt.Errorf("core: %d weights for %d query points", len(w), n)
	}
	ctx := &weightCtx{w: w, min: math.Inf(1)}
	for i, v := range w {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: weight %d is %v; weights must be positive and finite", i, v)
		}
		ctx.sum += v
		if v > ctx.max {
			ctx.max = v
		}
		if v < ctx.min {
			ctx.min = v
		}
	}
	return ctx, nil
}

// aggDistW returns the (possibly weighted) aggregate distance dist(p,Q).
func aggDistW(a Aggregate, p geom.Point, qs []geom.Point, w *weightCtx) float64 {
	if w == nil {
		return aggDist(a, p, qs)
	}
	switch a {
	case Max:
		m := 0.0
		for i, q := range qs {
			if d := w.w[i] * geom.Dist(p, q); d > m {
				m = d
			}
		}
		return m
	case Min:
		m := math.Inf(1)
		for i, q := range qs {
			if d := w.w[i] * geom.Dist(p, q); d < m {
				m = d
			}
		}
		return m
	default:
		s := 0.0
		for i, q := range qs {
			s += w.w[i] * geom.Dist(p, q)
		}
		return s
	}
}

// nodeLBW is the heuristic-3 family bound under weights: since
// |p q_i| ≥ mindist(N, q_i) for p inside N, each term scales by w_i.
func nodeLBW(a Aggregate, r geom.Rect, qs []geom.Point, w *weightCtx) float64 {
	if w == nil {
		return nodeLB(a, r, qs)
	}
	switch a {
	case Max:
		m := 0.0
		for i, q := range qs {
			if d := w.w[i] * geom.MinDistPointRect(q, r); d > m {
				m = d
			}
		}
		return m
	case Min:
		m := math.Inf(1)
		for i, q := range qs {
			if d := w.w[i] * geom.MinDistPointRect(q, r); d < m {
				m = d
			}
		}
		return m
	default:
		s := 0.0
		for i, q := range qs {
			s += w.w[i] * geom.MinDistPointRect(q, r)
		}
		return s
	}
}

// quickNodeLBW is the heuristic-2 family bound under weights: every
// |p q_i| ≥ mindist(N, M), so the weighted sum is ≥ W·mindist, the
// weighted max ≥ max(w)·mindist and the weighted min ≥ min(w)·mindist.
func quickNodeLBW(a Aggregate, r geom.Rect, qmbr geom.Rect, n int, w *weightCtx) float64 {
	if w == nil {
		return quickNodeLB(a, r, qmbr, n)
	}
	d := geom.MinDistRectRect(r, qmbr)
	switch a {
	case Max:
		return d * w.max
	case Min:
		return d * w.min
	default:
		return d * w.sum
	}
}

// quickLBFromMindist folds an already-computed mindist d (point- or
// rect-to-MBR) into the heuristic-2 family bound, exactly as
// quickNodeLBW/quickPointLBW would: the depth-first kernels sort on the
// squared mindist and derive the bound from that key with a single Sqrt
// instead of recomputing the mindist.
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

// quickPointLBW is quickNodeLBW for a data point.
func quickPointLBW(a Aggregate, p geom.Point, qmbr geom.Rect, n int, w *weightCtx) float64 {
	if w == nil {
		return quickPointLB(a, p, qmbr, n)
	}
	d := geom.MinDistPointRect(p, qmbr)
	switch a {
	case Max:
		return d * w.max
	case Min:
		return d * w.min
	default:
		return d * w.sum
	}
}

// combineThresholdsW folds MQM's per-stream thresholds t_i into the
// global threshold T under weights: every unseen point p has
// |p q_i| ≥ t_i, hence w_i·|p q_i| ≥ w_i·t_i and T = agg_i(w_i·t_i).
func combineThresholdsW(a Aggregate, thresholds []float64, w *weightCtx) float64 {
	if w == nil {
		return aggCombine(a, thresholds)
	}
	switch a {
	case Max:
		m := 0.0
		for i, t := range thresholds {
			if v := w.w[i] * t; v > m {
				m = v
			}
		}
		return m
	case Min:
		m := math.Inf(1)
		for i, t := range thresholds {
			if v := w.w[i] * t; v < m {
				m = v
			}
		}
		return m
	default:
		s := 0.0
		for i, t := range thresholds {
			s += w.w[i] * t
		}
		return s
	}
}

// The SoA group fast path. The group-facing inner loops — the exact
// aggregate distance of a candidate point and the heuristic-3 node bound —
// evaluate one term per query point, and with the group stored as a slice
// of separately allocated points every term starts with a pointer chase.
// Queries therefore lay the group out once per query as per-axis columns
// (ExecContext.groupSoA) and the hot loops stream those contiguous
// arrays. Each term performs exactly the same floating-point operations
// in the same order as its AoS counterpart in aggDistW/nodeLBW (the 2-D
// specialisation's dx*dx + dy*dy equals the (0+d0²)+d1² accumulation
// bit for bit, squares being non-negative), so results, pruning and
// node-access counts are unchanged.

// aggDistSoA is aggDistW over the SoA group g (g[axis][j]).
func aggDistSoA(a Aggregate, p geom.Point, g [][]float64, w *weightCtx) float64 {
	n := len(g[0])
	if len(g) == 2 {
		px, py := p[0], p[1]
		qx, qy := g[0], g[1]
		switch a {
		case Max:
			var m float64
			if w == nil {
				for j := 0; j < n; j++ {
					dx, dy := px-qx[j], py-qy[j]
					if dsq := dx*dx + dy*dy; dsq > m {
						m = dsq
					}
				}
				return math.Sqrt(m)
			}
			for j := 0; j < n; j++ {
				dx, dy := px-qx[j], py-qy[j]
				if d := w.w[j] * math.Sqrt(dx*dx+dy*dy); d > m {
					m = d
				}
			}
			return m
		case Min:
			m := math.Inf(1)
			if w == nil {
				for j := 0; j < n; j++ {
					dx, dy := px-qx[j], py-qy[j]
					if dsq := dx*dx + dy*dy; dsq < m {
						m = dsq
					}
				}
				return math.Sqrt(m)
			}
			for j := 0; j < n; j++ {
				dx, dy := px-qx[j], py-qy[j]
				if d := w.w[j] * math.Sqrt(dx*dx+dy*dy); d < m {
					m = d
				}
			}
			return m
		default:
			var s float64
			if w == nil {
				for j := 0; j < n; j++ {
					dx, dy := px-qx[j], py-qy[j]
					s += math.Sqrt(dx*dx + dy*dy)
				}
				return s
			}
			for j := 0; j < n; j++ {
				dx, dy := px-qx[j], py-qy[j]
				s += w.w[j] * math.Sqrt(dx*dx+dy*dy)
			}
			return s
		}
	}
	// Generic dimensionality: same shape, axis-inner.
	distSqAt := func(j int) float64 {
		var dsq float64
		for ax := range g {
			d := p[ax] - g[ax][j]
			dsq += d * d
		}
		return dsq
	}
	switch a {
	case Max:
		var m float64
		if w == nil {
			for j := 0; j < n; j++ {
				if dsq := distSqAt(j); dsq > m {
					m = dsq
				}
			}
			return math.Sqrt(m)
		}
		for j := 0; j < n; j++ {
			if d := w.w[j] * math.Sqrt(distSqAt(j)); d > m {
				m = d
			}
		}
		return m
	case Min:
		m := math.Inf(1)
		if w == nil {
			for j := 0; j < n; j++ {
				if dsq := distSqAt(j); dsq < m {
					m = dsq
				}
			}
			return math.Sqrt(m)
		}
		for j := 0; j < n; j++ {
			if d := w.w[j] * math.Sqrt(distSqAt(j)); d < m {
				m = d
			}
		}
		return m
	default:
		var s float64
		if w == nil {
			for j := 0; j < n; j++ {
				s += math.Sqrt(distSqAt(j))
			}
			return s
		}
		for j := 0; j < n; j++ {
			s += w.w[j] * math.Sqrt(distSqAt(j))
		}
		return s
	}
}

// nodeLBSoA is nodeLBW (the heuristic-3 family bound) over the SoA group.
func nodeLBSoA(a Aggregate, r geom.Rect, g [][]float64, w *weightCtx) float64 {
	n := len(g[0])
	if len(g) == 2 {
		lox, hix := r.Lo[0], r.Hi[0]
		loy, hiy := r.Lo[1], r.Hi[1]
		qx, qy := g[0], g[1]
		minDistSqAt := func(j int) float64 {
			var dx, dy float64
			switch {
			case qx[j] < lox:
				dx = lox - qx[j]
			case qx[j] > hix:
				dx = qx[j] - hix
			}
			switch {
			case qy[j] < loy:
				dy = loy - qy[j]
			case qy[j] > hiy:
				dy = qy[j] - hiy
			}
			return dx*dx + dy*dy
		}
		switch a {
		case Max:
			var m float64
			if w == nil {
				for j := 0; j < n; j++ {
					if dsq := minDistSqAt(j); dsq > m {
						m = dsq
					}
				}
				return math.Sqrt(m)
			}
			for j := 0; j < n; j++ {
				if d := w.w[j] * math.Sqrt(minDistSqAt(j)); d > m {
					m = d
				}
			}
			return m
		case Min:
			m := math.Inf(1)
			if w == nil {
				for j := 0; j < n; j++ {
					if dsq := minDistSqAt(j); dsq < m {
						m = dsq
					}
				}
				return math.Sqrt(m)
			}
			for j := 0; j < n; j++ {
				if d := w.w[j] * math.Sqrt(minDistSqAt(j)); d < m {
					m = d
				}
			}
			return m
		default:
			var s float64
			if w == nil {
				for j := 0; j < n; j++ {
					s += math.Sqrt(minDistSqAt(j))
				}
				return s
			}
			for j := 0; j < n; j++ {
				s += w.w[j] * math.Sqrt(minDistSqAt(j))
			}
			return s
		}
	}
	minDistSqAt := func(j int) float64 {
		var dsq float64
		for ax := range g {
			v := g[ax][j]
			var d float64
			switch {
			case v < r.Lo[ax]:
				d = r.Lo[ax] - v
			case v > r.Hi[ax]:
				d = v - r.Hi[ax]
			}
			dsq += d * d
		}
		return dsq
	}
	switch a {
	case Max:
		var m float64
		if w == nil {
			for j := 0; j < n; j++ {
				if dsq := minDistSqAt(j); dsq > m {
					m = dsq
				}
			}
			return math.Sqrt(m)
		}
		for j := 0; j < n; j++ {
			if d := w.w[j] * math.Sqrt(minDistSqAt(j)); d > m {
				m = d
			}
		}
		return m
	case Min:
		m := math.Inf(1)
		if w == nil {
			for j := 0; j < n; j++ {
				if dsq := minDistSqAt(j); dsq < m {
					m = dsq
				}
			}
			return math.Sqrt(m)
		}
		for j := 0; j < n; j++ {
			if d := w.w[j] * math.Sqrt(minDistSqAt(j)); d < m {
				m = d
			}
		}
		return m
	default:
		var s float64
		if w == nil {
			for j := 0; j < n; j++ {
				s += math.Sqrt(minDistSqAt(j))
			}
			return s
		}
		for j := 0; j < n; j++ {
			s += w.w[j] * math.Sqrt(minDistSqAt(j))
		}
		return s
	}
}

// regionAllows reports whether a data point qualifies under the optional
// constraint region.
func regionAllows(region *geom.Rect, p geom.Point) bool {
	return region == nil || region.ContainsPoint(p)
}
