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

// regionAllows reports whether a data point qualifies under the optional
// constraint region.
func regionAllows(region *geom.Rect, p geom.Point) bool {
	return region == nil || region.ContainsPoint(p)
}
