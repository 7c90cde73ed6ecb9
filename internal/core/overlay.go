// Overlay support: the scans of the unfolded pending points (ScanPoints,
// ScanAll) that a view's read path (internal/shard) composes on top of
// the paper kernels. A view with writes runs the kernel once per tree
// source (the base's arenas, the small delta tree) and merges every
// source's answer like the sharded scatter merges its shards', so the
// bit-exactness argument is the same.

package core

import (
	"cmp"
	"slices"

	"gnn/internal/geom"
)

// ScanPoints computes the k best group neighbors over an explicit point
// list — the overlay's pending tail, points inserted since the delta tree
// was last folded. It charges no node accesses (the pending tail is a
// memory-resident array, not an index) and honours the full option set
// the kernels do: aggregate, weights, region, shared bound and group.
// Reject is deliberately ignored: pending points are physically removed
// on delete, never tombstoned.
func ScanPoints(pts []geom.Point, ids []int64, qs []geom.Point, opt Options) ([]GroupNeighbor, error) {
	best := &kbest{k: opt.withDefaults().K, shared: opt.Shared}
	if err := scan(pts, ids, qs, opt, func(g GroupNeighbor) { best.offer(g) }); err != nil {
		return nil, err
	}
	return best.results(), nil
}

// ScanAll computes the aggregate distance of every pending-tail point —
// honouring aggregate, weights, and region — sorted ascending. It backs
// the incremental iterator path, which cannot bound k in advance: the
// view's merge streams the sorted list beside the tree iterators.
func ScanAll(pts []geom.Point, ids []int64, qs []geom.Point, opt Options) ([]GroupNeighbor, error) {
	out := make([]GroupNeighbor, 0, len(pts))
	if err := scan(pts, ids, qs, opt, func(g GroupNeighbor) { out = append(out, g) }); err != nil {
		return nil, err
	}
	slices.SortStableFunc(out, func(a, b GroupNeighbor) int { return cmp.Compare(a.Dist, b.Dist) })
	return out, nil
}

// scan hands keep every point the region admits, scored against the
// query's prepared group, until the query is canceled.
func scan(pts []geom.Point, ids []int64, qs []geom.Point, opt Options, keep func(GroupNeighbor)) error {
	opt = opt.withDefaults()
	ec, owned := opt.exec()
	defer releaseIfOwned(ec, owned)
	grp, err := opt.groupOf(&ec.grp, nil, qs)
	if err != nil {
		return err
	}
	ec.terms = grp.terms(ec.terms.sq)
	for i, p := range pts {
		if i%256 == 0 && opt.Cancel.Stop() {
			break
		}
		if opt.Region == nil || opt.Region.ContainsPoint(p) {
			keep(GroupNeighbor{Point: p, ID: ids[i], Dist: aggDistSoA(opt.Aggregate, p, &ec.terms, grp.w)})
		}
	}
	return opt.Cancel.Failure()
}
