// Overlay support: the pieces a view's read path (internal/shard)
// composes on top of the paper kernels — the scans of the unfolded
// pending points (ScanPoints, ScanAll) and the Stream surface its lazy
// merges consume. A view with writes runs the kernel once per tree
// source (the base's arenas, the small delta tree) and merges every
// source's answer like the sharded scatter merges its shards', so the
// bit-exactness argument is the same.

package core

import (
	"cmp"
	"slices"

	"gnn/internal/geom"
)

// Stream is an ascending-distance candidate stream: the common surface of
// GNNIterator (one per tree source), rtree.NNIterator (a point-NN scan)
// and ListStream (pending points). The shard merge iterator consumes
// Streams, which lets one merge serve every source of a view.
type Stream interface {
	// Next returns the next candidate; ok is false when exhausted. The
	// candidate's Point may be the stream's scratch, valid only until the
	// stream's next Next or Close: consumers that keep it copy it.
	Next() (GroupNeighbor, bool)
	// PeekDist returns a lower bound on the next candidate's distance;
	// ok is false when exhausted.
	PeekDist() (float64, bool)
	// Close releases the stream's resources; it is idempotent.
	Close()
}

// ListStream adapts a pre-computed, ascending-sorted result list to the
// Stream interface. Unlike a tree iterator its distances are exact, so
// PeekDist is tight.
type ListStream struct {
	items []GroupNeighbor
	pos   int
}

// NewListStream wraps items, ascending by distance as ScanAll returns
// them. The slice is retained.
func NewListStream(items []GroupNeighbor) *ListStream {
	return &ListStream{items: items}
}

// Next implements Stream.
func (ls *ListStream) Next() (GroupNeighbor, bool) {
	if ls.pos >= len(ls.items) {
		return GroupNeighbor{}, false
	}
	g := ls.items[ls.pos]
	ls.pos++
	return g, true
}

// PeekDist implements Stream.
func (ls *ListStream) PeekDist() (float64, bool) {
	if ls.pos >= len(ls.items) {
		return 0, false
	}
	return ls.items[ls.pos].Dist, true
}

// Close implements Stream.
func (ls *ListStream) Close() { ls.items = nil; ls.pos = 0 }

// ScanPoints computes the k best group neighbors over an explicit point
// list — the overlay's pending tail, points inserted since the delta tree
// was last folded. It charges no node accesses (the pending tail is a
// memory-resident array, not an index) and honours the full option set
// the kernels do: aggregate, weights, region, shared bound. Reject is
// deliberately ignored: pending points are physically removed on delete,
// never tombstoned.
func ScanPoints(pts []geom.Point, ids []int64, qs []geom.Point, opt Options) ([]GroupNeighbor, error) {
	opt = opt.withDefaults()
	if len(qs) == 0 {
		return nil, ErrEmptyQuery
	}
	if opt.K < 1 {
		return nil, ErrBadK
	}
	w, err := newWeightCtx(opt.Weights, len(qs))
	if err != nil {
		return nil, err
	}
	ec, owned := opt.exec()
	defer releaseIfOwned(ec, owned)
	g := ec.grp.fill(qs)
	best := newKBest(opt.K)
	best.shared = opt.Shared
	for i, p := range pts {
		if i%256 == 0 && opt.Cancel.Stop() {
			break
		}
		if regionAllows(opt.Region, p) {
			best.offer(GroupNeighbor{Point: p, ID: ids[i], Dist: aggDistSoA(opt.Aggregate, p, g, w)})
		}
	}
	if err := opt.Cancel.Failure(); err != nil {
		return nil, err
	}
	return best.results(), nil
}

// ScanAll computes the aggregate distance of every pending-tail point —
// honouring aggregate, weights, and region — sorted ascending. It backs
// the incremental iterator path, which cannot bound k in advance; wrap
// the result in a ListStream and merge it with the tree iterators.
func ScanAll(pts []geom.Point, ids []int64, qs []geom.Point, opt Options) ([]GroupNeighbor, error) {
	opt = opt.withDefaults()
	if len(qs) == 0 {
		return nil, ErrEmptyQuery
	}
	w, err := newWeightCtx(opt.Weights, len(qs))
	if err != nil {
		return nil, err
	}
	ec, owned := opt.exec()
	defer releaseIfOwned(ec, owned)
	g := ec.grp.fill(qs)
	out := make([]GroupNeighbor, 0, len(pts))
	for i, p := range pts {
		if regionAllows(opt.Region, p) {
			out = append(out, GroupNeighbor{Point: p, ID: ids[i], Dist: aggDistSoA(opt.Aggregate, p, g, w)})
		}
	}
	slices.SortStableFunc(out, func(a, b GroupNeighbor) int { return cmp.Compare(a.Dist, b.Dist) })
	return out, nil
}
