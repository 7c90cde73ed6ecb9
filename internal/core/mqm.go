package core

import (
	"gnn/internal/dataset"
	"gnn/internal/geom"
	"gnn/internal/hilbert"
	"gnn/internal/rtree"
)

// MQM answers a GNN query with the multiple query method (§3.1): it runs
// one incremental point-NN stream per query point (best-first search, the
// required incremental algorithm) and combines them with the threshold
// algorithm of [FLN01]. Query points are first sorted by Hilbert value so
// consecutive streams touch nearby R-tree nodes.
//
// Per-query-point thresholds t_i hold the distance of the last neighbor
// retrieved for q_i; the algorithm stops when the combined threshold
// T = agg(t_1..t_n) reaches best_dist, since every unseen point p has
// |p q_i| ≥ t_i for all i and therefore dist(p,Q) ≥ T.
func MQM(t *rtree.Tree, qs []geom.Point, opt Options) ([]GroupNeighbor, error) {
	opt = opt.withDefaults()
	if err := validate(t, qs, opt); err != nil {
		return nil, err
	}
	w, err := newWeightCtx(opt.Weights, len(qs))
	if err != nil {
		return nil, err
	}
	// Sort a copy of Q by Hilbert value (2-D only; the ordering is a pure
	// locality optimisation and does not affect correctness). Weights are
	// permuted alongside their query points.
	qs, w = sortByHilbertWeighted(qs, w)
	n := len(qs)

	ec, owned := opt.exec()
	defer releaseIfOwned(ec, owned)
	// The per-point NN streams never consult the region: MQM filters
	// results point by point.
	rd := opt.Packed.Reader(opt.Cost)
	ec.iters = grow(ec.iters, n)
	iters := ec.iters
	for i, q := range qs {
		iters[i] = rd.NewNNIterator(q)
	}
	defer func() {
		for i, it := range iters {
			it.Close()
			iters[i] = nil
		}
	}()
	ec.thresholds = growFloats(ec.thresholds, n)
	thresholds := ec.thresholds
	gq := ec.groupSoA(qs)
	best := ec.kbestShared(t, opt.K, opt.Shared, opt.Reject)

	// T = agg_i(w_i·t_i). For SUM (the common case) it is maintained
	// incrementally; MAX/MIN recompute, which is still cheap because the
	// extension aggregates converge in few rounds.
	tSum := 0.0
	combined := func() float64 {
		if opt.Aggregate == Sum {
			return tSum
		}
		return combineThresholdsW(opt.Aggregate, thresholds, w)
	}
	weightOf := func(i int) float64 {
		if w == nil {
			return 1
		}
		return w.w[i]
	}

	for i := 0; ; i = (i + 1) % n {
		if opt.Cancel.Stop() {
			return nil, opt.Cancel.Failure()
		}
		if combined() >= best.bound() {
			break // T ≥ best_dist: no unseen point can be closer
		}
		nb, ok := iters[i].Next()
		if !ok {
			// Stream i enumerated the entire dataset, so every point has
			// already been offered with its exact aggregate distance; the
			// result set is final.
			break
		}
		if tr := opt.Trace; tr != nil {
			tr.StreamAdvances++
		}
		tSum += weightOf(i) * (nb.Dist - thresholds[i])
		thresholds[i] = nb.Dist
		if regionAllows(opt.Region, nb.Point) {
			if tr := opt.Trace; tr != nil {
				tr.ExactDistances++
			}
			best.offer(GroupNeighbor{
				Point: nb.Point,
				ID:    nb.ID,
				Dist:  aggDistSoA(opt.Aggregate, nb.Point, gq, w),
			})
		}
	}
	return best.results(), nil
}

// sortByHilbertWeighted sorts the query points by Hilbert value and keeps
// the weight vector aligned.
func sortByHilbertWeighted(qs []geom.Point, w *weightCtx) ([]geom.Point, *weightCtx) {
	if w == nil {
		return sortByHilbert(qs), nil
	}
	type pair struct {
		p geom.Point
		w float64
	}
	pairs := make([]pair, len(qs))
	for i := range qs {
		pairs[i] = pair{qs[i], w.w[i]}
	}
	if len(qs) > 0 && len(qs[0]) == 2 {
		r := geom.BoundingRect(qs)
		m := hilbert.NewMapper(hilbert.DefaultOrder, r.Lo[0], r.Lo[1], r.Hi[0], r.Hi[1])
		hilbert.SortByValue(len(pairs), m,
			func(i int) (float64, float64) { return pairs[i].p[0], pairs[i].p[1] },
			func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	}
	outQ := make([]geom.Point, len(pairs))
	outW := make([]float64, len(pairs))
	for i, pr := range pairs {
		outQ[i] = pr.p
		outW[i] = pr.w
	}
	ctx, _ := newWeightCtx(outW, len(outW)) // already validated
	return outQ, ctx
}

// sortByHilbert returns qs ordered by Hilbert value (2-D input only; other
// dimensionalities are returned unchanged).
func sortByHilbert(qs []geom.Point) []geom.Point {
	if len(qs) == 0 || len(qs[0]) != 2 {
		return qs
	}
	out := make([]geom.Point, len(qs))
	copy(out, qs)
	r := geom.BoundingRect(out)
	m := hilbert.NewMapper(hilbert.DefaultOrder, r.Lo[0], r.Lo[1], r.Hi[0], r.Hi[1])
	hilbert.SortByValue(len(out), m,
		func(i int) (float64, float64) { return out[i][0], out[i][1] },
		func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// hilbertSortDataset orders a 2-D point slice by Hilbert value over the
// canonical workspace — the external-sort preprocessing of §4.2/4.3.
func hilbertSortDataset(pts []geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	copy(out, pts)
	if len(out) == 0 || len(out[0]) != 2 {
		return out
	}
	ws := dataset.Workspace()
	r := geom.BoundingRect(out)
	r = r.Union(ws) // cover points outside the canonical workspace too
	m := hilbert.NewMapper(hilbert.DefaultOrder, r.Lo[0], r.Lo[1], r.Hi[0], r.Hi[1])
	hilbert.SortByValue(len(out), m,
		func(i int) (float64, float64) { return out[i][0], out[i][1] },
		func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
