// Package core implements the paper's contribution: algorithms that answer
// group nearest neighbor (GNN) queries over a dataset P indexed by an
// R-tree and a query group Q.
//
// Memory-resident Q (§3):
//
//   - MQM — multiple query method: one incremental point-NN stream per
//     query point, combined with the threshold algorithm.
//   - SPM — single point method: one traversal ordered around the group
//     centroid, pruned with Lemma 1 / heuristic 1.
//   - MBM — minimum bounding method: one traversal pruned with the query
//     MBR (heuristics 2 and 3). The incremental variant backs F-MQM.
//
// Disk-resident Q (§4):
//
//   - GCP — group closest pairs over R-trees on P and Q (heuristic 4).
//   - FMQM — F-MQM over Hilbert-sorted memory-sized blocks of Q.
//   - FMBM — F-MBM with the weighted-mindist heuristics 5 and 6.
//
// BruteForce provides the exact baseline used for validation, and every
// algorithm supports k ≥ 1 results. MQM, MBM and BruteForce additionally
// support the MAX and MIN aggregates (the paper's future-work extension);
// SPM, GCP, F-MQM and F-MBM are SUM-only because their pruning bounds
// (Lemma 1, heuristics 4-6) are derived for the sum of distances.
package core

import (
	"errors"
	"fmt"
	"math"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
)

// GroupNeighbor is one GNN result: a data point and its aggregate distance
// to the query group.
type GroupNeighbor struct {
	Point geom.Point
	ID    int64
	Dist  float64
}

// RejectFunc vetoes a candidate data point (see Options.Reject). It must
// be pure and safe for concurrent use: the sharded scatter calls one
// function value from every shard worker. It must not retain p: p is the
// kernel's gather scratch, overwritten by the next candidate.
type RejectFunc func(p geom.Point, id int64) bool

// Aggregate selects the distance-combination function dist(p,Q).
type Aggregate int

const (
	// Sum is the paper's aggregate: dist(p,Q) = Σ_i |p qi|.
	Sum Aggregate = iota
	// Max is the extension aggregate max_i |p qi| (minimises the farthest
	// group member's travel).
	Max
	// Min is the extension aggregate min_i |p qi| (any one member reaches
	// the point).
	Min
)

// String names the aggregate.
func (a Aggregate) String() string {
	switch a {
	case Sum:
		return "sum"
	case Max:
		return "max"
	case Min:
		return "min"
	default:
		return fmt.Sprintf("Aggregate(%d)", int(a))
	}
}

// Traversal selects between the two branch-and-bound paradigms of §2.
type Traversal int

const (
	// BestFirst is the I/O-optimal ordering of [HS99]; the paper's
	// experiments use it for all algorithms (§5).
	BestFirst Traversal = iota
	// DepthFirst is the recursive ordering of [RKV95]; supported by SPM,
	// MBM and F-MBM, exactly as the paper notes.
	DepthFirst
)

// CentroidMethod selects how SPM approximates the group centroid.
type CentroidMethod int

const (
	// GradientDescent is the paper's method (§3.2).
	GradientDescent CentroidMethod = iota
	// Weiszfeld is the classical fixed-point iteration (ablation).
	Weiszfeld
	// ArithmeticMean skips optimisation entirely (ablation): Lemma 1
	// holds for any point, so correctness is unaffected — only pruning
	// power degrades.
	ArithmeticMean
)

// Options configures a query. The zero value means: k = 1, SUM aggregate,
// best-first traversal, full heuristics, gradient-descent centroid.
type Options struct {
	// K is the number of neighbors to return (default 1).
	K int
	// Aggregate is the distance combination (default Sum).
	Aggregate Aggregate
	// Traversal picks best-first or depth-first where both exist.
	Traversal Traversal
	// DisableHeuristic3 makes MBM use heuristic 2 only — the ablation of
	// §5.1 footnote 3.
	DisableHeuristic3 bool
	// Centroid picks SPM's centroid solver.
	Centroid CentroidMethod
	// Weights assigns a positive weight per query point:
	// dist(p,Q) = agg_i w_i·|p q_i| (extension; MQM, SPM, MBM, BruteForce).
	// nil means unweighted. Must match the query group's length.
	Weights []float64
	// Region restricts results to data points inside the rectangle
	// (extension, cf. constrained NN [FSAA01]; MQM, SPM, MBM, BruteForce).
	// nil means unconstrained.
	Region *geom.Rect
	// Trace, when non-nil, accumulates per-heuristic pruning diagnostics
	// (populated by MQM, SPM, MBM, the MBM iterator and BruteForce; each
	// kernel fills the counters that apply to it — see Trace).
	Trace *Trace
	// Stages, when non-nil, accumulates named per-stage wall times
	// (scatter per shard, merge, overlay sources). Like Trace it is
	// optional and nil-safe; unlike Trace it must only be appended to
	// from one goroutine — parallel stages record into private slots and
	// are merged at gather time.
	Stages *StageLog
	// Cost, when non-nil, accumulates this query's I/O cost in place: node
	// accesses of every tree the algorithm traverses, plus the page reads
	// of a disk-resident query set. Give each query its own tracker; the
	// index-wide aggregate accrues either way, so per-query costs always
	// sum to the aggregate. A nil Cost charges the aggregate only.
	Cost *pagestore.CostTracker
	// Exec, when non-nil, supplies the query's pooled scratch arena so a
	// caller answering many sequential queries (the batch engine) reuses
	// one context instead of cycling the pool. A nil Exec draws a context
	// from the pool for the duration of the call. Like Cost, an Exec must
	// not be shared by concurrent queries.
	Exec *ExecContext
	// Packed is the packed arena of the queried tree: the structure every
	// traversal walks. It is required; a nil arena, or one that is not
	// the tree's (Packed.Valid), fails the query with ErrNoArena.
	Packed *rtree.Packed
	// Shared, when non-nil, couples this traversal to the other partitions
	// of one sharded query: MQM, SPM, MBM and BruteForce prune with
	// min(local k-th best, Shared) and publish their local k-th best into
	// it whenever it tightens. The per-partition result lists may then be
	// truncated below K — every truncated candidate provably cannot rank
	// among the final k — and MergeNeighbors reassembles the exact answer.
	// nil (the default) is a plain standalone query.
	Shared *SharedBound
	// Reject, when non-nil, vetoes candidates before they can enter the
	// result set: a data point for which Reject returns true is skipped
	// as if it were not indexed. The overlay layer uses it to filter
	// delete-tombstoned base points out of base-tree traversals. The
	// filter acts at the result accumulator (and the iterator's candidate
	// stage), never at node granularity, so the traversal order and the
	// node-access counts of a traversal are unchanged — only which leaf
	// points may become results. It must not retain p (see RejectFunc).
	// nil rejects nothing.
	Reject RejectFunc
	// GenericMax forces the MAX aggregate onto the generic per-member
	// pruning bounds, disabling the dedicated minimum-enclosing-ball
	// kernel (see maxmeb.go). Results are identical either way; the knob
	// exists for differential testing and for benchmarking the dedicated
	// kernel's node-access advantage.
	GenericMax bool
	// Cancel, when non-nil, is polled at bounded intervals inside the
	// MQM/SPM/MBM/BruteForce traversal loops; once its context fires the
	// kernel unwinds and returns ErrCanceled/ErrDeadlineExceeded, with the
	// cost accrued so far intact in Cost (partial cost accounting). Like
	// Cost and Exec it must not be shared by concurrent traversals — the
	// sharded scatter Forks it per shard. nil (the default) runs the query
	// to completion unconditionally.
	Cancel *CancelCheck
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 1
	}
	return o
}

// Errors shared by the algorithms.
var (
	// ErrEmptyQuery reports an empty query group.
	ErrEmptyQuery = errors.New("core: empty query group")
	// ErrBadK reports a non-positive k.
	ErrBadK = errors.New("core: k must be >= 1")
	// ErrUnsupportedAggregate reports an aggregate the algorithm's pruning
	// bounds do not cover.
	ErrUnsupportedAggregate = errors.New("core: aggregate not supported by this algorithm")
	// ErrBudgetExceeded reports that GCP hit its pair budget before
	// terminating (the paper's "GCP does not terminate at all" regime).
	ErrBudgetExceeded = errors.New("core: pair budget exceeded before termination")
	// ErrUnsupportedOption reports an extension option (weights, region)
	// passed to an algorithm whose bounds do not cover it (the disk-
	// resident family).
	ErrUnsupportedOption = errors.New("core: option not supported by this algorithm")
	// ErrNoArena reports a kernel call whose Options.Packed is not the
	// queried tree's packed arena.
	ErrNoArena = errors.New("core: Options.Packed is not the queried tree's packed arena")
)

// validate checks the arena and the query group of a memory-resident
// query.
func validate(t *rtree.Tree, qs []geom.Point, opt Options) error {
	if !opt.Packed.Valid(t) {
		return ErrNoArena
	}
	if len(qs) == 0 {
		return ErrEmptyQuery
	}
	if opt.K < 1 {
		return ErrBadK
	}
	for i, q := range qs {
		if len(q) != t.Dim() {
			return fmt.Errorf("core: query point %d has dimension %d, tree dimension %d",
				i, len(q), t.Dim())
		}
	}
	return nil
}

// aggDist returns dist(p,Q) under the aggregate.
func aggDist(a Aggregate, p geom.Point, qs []geom.Point) float64 {
	switch a {
	case Max:
		return geom.MaxDistToGroup(p, qs)
	case Min:
		return geom.MinDistToGroup(p, qs)
	default:
		return geom.SumDist(p, qs)
	}
}

// aggCombine folds per-query-point lower bounds into a group bound: given
// values v_i that lower-bound |p q_i| for every p of interest, the result
// lower-bounds dist(p,Q).
func aggCombine(a Aggregate, vs []float64) float64 {
	switch a {
	case Max:
		m := 0.0
		for _, v := range vs {
			if v > m {
				m = v
			}
		}
		return m
	case Min:
		m := math.Inf(1)
		for _, v := range vs {
			if v < m {
				m = v
			}
		}
		return m
	default:
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return s
	}
}

// nodeLB returns the tight per-query-point lower bound on dist(p,Q) for
// any p inside r — heuristic 3 for SUM, the analogous bounds for MAX/MIN.
// The MAX/MIN bounds compare squared mindists and Sqrt only the winner
// (squaring is monotone); SUM adds the distances themselves, so each term
// keeps its Sqrt.
func nodeLB(a Aggregate, r geom.Rect, qs []geom.Point) float64 {
	switch a {
	case Max:
		return math.Sqrt(geom.MaxMinDistSqRectToGroup(r, qs))
	case Min:
		return math.Sqrt(geom.MinMinDistSqRectToGroup(r, qs))
	default:
		return geom.SumMinDistRectToGroup(r, qs)
	}
}

// quickNodeLB returns the cheap single-computation lower bound on
// dist(p,Q) for p inside r, from the query MBR — heuristic 2 for SUM.
func quickNodeLB(a Aggregate, r geom.Rect, qmbr geom.Rect, n int) float64 {
	d := geom.MinDistRectRect(r, qmbr)
	if a == Sum {
		return float64(n) * d
	}
	return d // both max_i and min_i of |p qi| are ≥ mindist(r, MBR(Q))
}

// quickPointLB is quickNodeLB for a data point.
func quickPointLB(a Aggregate, p geom.Point, qmbr geom.Rect, n int) float64 {
	d := geom.MinDistPointRect(p, qmbr)
	if a == Sum {
		return float64(n) * d
	}
	return d
}

// kbest maintains the k best (smallest-distance) group neighbors found so
// far, deduplicated by point ID. It is a small sorted slice rather than a
// heap because the paper's k ≤ 32. When shared is non-nil the accumulator
// participates in a sharded query: bound() folds the cross-shard bound in
// and offer publishes local improvements back (see SharedBound).
//
// The accumulator owns its results' coordinates: offer copies an accepted
// candidate's point into row i of rows, kept parallel to items, so a
// candidate may live in scratch (a packed kernel's gather buffer) and
// results never alias the index. Both slices grow with the results
// held, never with k.
type kbest struct {
	k      int
	dim    int
	items  []kbItem
	rows   []float64 // rows[i*dim:(i+1)*dim] holds items[i]'s coordinates
	shared *SharedBound
	reject RejectFunc
}

// kbItem is one held result; its coordinates are the matching row.
type kbItem struct {
	ID   int64
	Dist float64
}

// newKBest returns a standalone accumulator for k results whose buffers
// grow with the results held.
func newKBest(k int) *kbest {
	return &kbest{k: k}
}

// bound returns the current pruning bound best_dist: the k-th best
// distance — or +Inf while fewer than k neighbors are known — tightened
// by the cross-shard bound when one is attached.
func (b *kbest) bound() float64 {
	local := math.Inf(1)
	if len(b.items) >= b.k {
		local = b.items[len(b.items)-1].Dist
	}
	if b.shared != nil {
		if s := b.shared.Load(); s < local {
			return s
		}
	}
	return local
}

// offer inserts the candidate if it ranks among the k best and its ID is
// not already present. Returns true when the result set changed. A
// rejected candidate (Options.Reject) never changes the set, so kernels
// naturally keep searching past tombstoned points: their pruning bound
// only tightens from candidates that remain live.
func (b *kbest) offer(g GroupNeighbor) bool {
	if b.reject != nil && b.reject(g.Point, g.ID) {
		return false
	}
	for _, it := range b.items {
		if it.ID == g.ID {
			return false // already a result (same point ⇒ same distance)
		}
	}
	if len(b.items) == b.k && g.Dist >= b.items[len(b.items)-1].Dist {
		return false
	}
	pos := len(b.items)
	for i, it := range b.items {
		if g.Dist < it.Dist {
			pos = i
			break
		}
	}
	b.items = append(b.items, kbItem{})
	copy(b.items[pos+1:], b.items[pos:])
	b.items[pos] = kbItem{ID: g.ID, Dist: g.Dist}
	d := len(g.Point)
	b.dim = d
	b.rows = append(b.rows, g.Point...)
	copy(b.rows[(pos+1)*d:], b.rows[pos*d:])
	copy(b.rows[pos*d:(pos+1)*d], g.Point)
	if len(b.items) > b.k {
		b.items = b.items[:b.k]
		b.rows = b.rows[:b.k*d]
	}
	if b.shared != nil && len(b.items) == b.k {
		b.shared.Tighten(b.items[len(b.items)-1].Dist)
	}
	return true
}

// results returns the accumulated neighbors in ascending distance order,
// their points in one fresh slab the caller owns.
func (b *kbest) results() []GroupNeighbor {
	out := make([]GroupNeighbor, len(b.items))
	slab := make([]float64, len(b.rows))
	copy(slab, b.rows)
	d := b.dim
	for i, it := range b.items {
		out[i] = GroupNeighbor{Point: slab[i*d : (i+1)*d : (i+1)*d], ID: it.ID, Dist: it.Dist}
	}
	return out
}

// BruteForce scans every indexed point and returns the exact k GNNs. It is
// the validation baseline; it does not charge node accesses (a sequential
// file scan, not an index traversal).
func BruteForce(t *rtree.Tree, qs []geom.Point, opt Options) ([]GroupNeighbor, error) {
	opt = opt.withDefaults()
	if err := validate(t, qs, opt); err != nil {
		return nil, err
	}
	w, err := newWeightCtx(opt.Weights, len(qs))
	if err != nil {
		return nil, err
	}
	ec, owned := opt.exec()
	defer releaseIfOwned(ec, owned)
	best := ec.kbestShared(t, opt.K, opt.Shared, opt.Reject)
	bruteForceScan(opt.Packed, qs, w, opt, best, ec)
	if err := opt.Cancel.Failure(); err != nil {
		return nil, err
	}
	return best.results(), nil
}

// bruteForceScan is the baseline's scan: the flat leaf arena is consumed
// in streaming chunks, each chunk's aggregate distances computed by one
// fused group kernel over the SoA coordinate arrays. Offers happen in
// the arena's depth-first slot order.
func bruteForceScan(p *rtree.Packed, qs []geom.Point, w *weightCtx, opt Options, best *kbest, ec *ExecContext) {
	pc := p.PointSoA()
	n := p.NumLeafSlots()
	const chunk = 512
	var ws []float64
	if w != nil {
		ws = w.w
	}
	for s := 0; s < n; s += chunk {
		// A direct poll per chunk, not the strided Stop: each chunk is
		// already hundreds of points × the group size in distance work,
		// so one context read per chunk is noise — while a 256-chunk
		// stride would let a canceled scan run for another 128k points.
		if opt.Cancel.Check() != nil {
			return
		}
		e := s + chunk
		if e > n {
			e = n
		}
		if tr := opt.Trace; tr != nil {
			// The fused kernel computes every chunk point's exact group
			// distance in one pass, region filtering happens after.
			tr.PointsScanned += e - s
			tr.ExactDistances += e - s
		}
		ec.dbuf = grow(ec.dbuf, e-s)
		dists := ec.dbuf
		sqrtEach := false
		switch opt.Aggregate {
		case Max:
			if ws == nil {
				geom.MaxDistSqPointsGroup(pc, s, e, qs, dists)
				sqrtEach = true
			} else {
				geom.MaxDistPointsGroupW(pc, s, e, qs, ws, dists)
			}
		case Min:
			if ws == nil {
				geom.MinDistSqPointsGroup(pc, s, e, qs, dists)
				sqrtEach = true
			} else {
				geom.MinDistPointsGroupW(pc, s, e, qs, ws, dists)
			}
		default:
			geom.SumDistPointsGroup(pc, s, e, qs, ws, dists)
		}
		for i := 0; i < e-s; i++ {
			slot := int32(s + i)
			if opt.Region != nil && !p.PointIn(slot, *opt.Region) {
				continue
			}
			pt := ec.gather(p, slot)
			d := dists[i]
			if sqrtEach {
				d = math.Sqrt(d)
			}
			best.offer(GroupNeighbor{Point: pt, ID: p.LeafID(slot), Dist: d})
		}
	}
}

// BruteForcePoints computes the exact k GNNs of qs over a plain point
// slice (ids are the slice indexes). Used to validate the disk-resident
// algorithms without building a tree.
func BruteForcePoints(pts []geom.Point, qs []geom.Point, opt Options) ([]GroupNeighbor, error) {
	opt = opt.withDefaults()
	if len(qs) == 0 {
		return nil, ErrEmptyQuery
	}
	if opt.K < 1 {
		return nil, ErrBadK
	}
	best := newKBest(opt.K)
	for i, p := range pts {
		best.offer(GroupNeighbor{Point: p, ID: int64(i), Dist: aggDist(opt.Aggregate, p, qs)})
	}
	return best.results(), nil
}
