package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gnn/internal/geom"
	"gnn/internal/hilbert"
	"gnn/internal/pagestore"
)

// NonFiniteError reports a point with a NaN or infinite coordinate. No
// index accepts one: a NaN fails every comparison and math.Min/math.Max
// carry it into every MBR above the point, so queries silently miss
// neighbours; an infinity makes distances and MBR extents infinite and
// their differences NaN.
type NonFiniteError struct {
	Index int     // position of the point in a bulk-load input; 0 for a single insert
	Axis  int     // the offending coordinate
	Value float64 // NaN, +Inf or -Inf
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("rtree: point %d has non-finite coordinate %d (%v); coordinates must be finite",
		e.Index, e.Axis, e.Value)
}

// CheckFinite returns a *NonFiniteError for the first NaN or infinite
// coordinate of p, reported as the point at position i, or nil. Every
// path by which a point enters an index runs it: the bulk loads and
// Insert here, and the overlay writes one layer up.
func CheckFinite(i int, p geom.Point) error {
	for a, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &NonFiniteError{Index: i, Axis: a, Value: v}
		}
	}
	return nil
}

// BulkLoadSTR builds a tree over the given points with the Sort-Tile-
// Recursive algorithm: points are tiled into vertical slabs of √(n/M)
// tiles, each slab sorted on the second axis, and leaves packed to
// capacity. Each upper level groups consecutive nodes of the level below.
// ids[i] identifies pts[i]; pass nil to use the point index.
func BulkLoadSTR(cfg Config, pts []geom.Point, ids []int64) (*Tree, error) {
	t, err := prepareBulk(cfg, pts, ids)
	if err != nil || t.size == 0 {
		return t, err
	}
	t.packLevels(pts, ids, strOrder(t.cfg, pts))
	return t, nil
}

// axisKey is one sort key of an STR pass: a coordinate and the position
// of its point before the pass.
type axisKey struct {
	v   float64
	pos int
}

// cmpAxisKey orders keys by coordinate, then by prior position. Ordering
// on (v, pos) with v compared by < reproduces a stable sort on v exactly
// (ties, -0 against +0 included, keep their prior order); it is a total
// order because prepareBulk admits only finite coordinates.
func cmpAxisKey(a, b axisKey) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return cmp.Compare(a.pos, b.pos)
}

// strOrder returns the STR leaf order of pts: order[rank] is the index
// of the point at that rank. Points are sorted on the first axis and cut
// into slabs of ⌈√(leaves)⌉·M points, each slab sorted on the second axis
// (points beyond 2-D are tiled on their first two axes, which preserves
// correctness — tiling is purely a quality heuristic).
func strOrder(cfg Config, pts []geom.Point) []int {
	n := len(pts)
	keys := make([]axisKey, n)
	for i, p := range pts {
		keys[i] = axisKey{p[0], i}
	}
	slices.SortFunc(keys, cmpAxisKey)
	order := make([]int, n)
	for r, k := range keys {
		order[r] = k.pos
	}
	if cfg.Dim < 2 {
		return order
	}

	M := cfg.MaxEntries
	nLeaves := (n + M - 1) / M
	perSlab := int(math.Ceil(math.Sqrt(float64(nLeaves)))) * M
	for r, i := range order {
		keys[r] = axisKey{pts[i][1], r}
	}
	for lo := 0; lo < n; lo += perSlab {
		slices.SortFunc(keys[lo:min(lo+perSlab, n)], cmpAxisKey)
	}
	// keys[r].pos is a first-pass rank: map it to its point before the
	// second pass's order overwrites the first's.
	for r := range keys {
		keys[r].pos = order[keys[r].pos]
	}
	for r, k := range keys {
		order[r] = k.pos
	}
	return order
}

// BulkLoadHilbert builds a tree by packing points in Hilbert order — the
// classic Hilbert-packed R-tree. Only the first two dimensions contribute
// to the ordering.
func BulkLoadHilbert(cfg Config, pts []geom.Point, ids []int64) (*Tree, error) {
	t, err := prepareBulk(cfg, pts, ids)
	if err != nil || t.size == 0 {
		return t, err
	}
	t.packLevels(pts, ids, hilbertPerm(t.cfg.Dim, pts))
	return t, nil
}

// BulkLoadSTRPartitioned Hilbert-partitions the points into parts
// contiguous chunks of near-equal size (the classic shard split: sort by
// Hilbert value, cut the curve into parts runs, so every chunk is
// spatially coherent) and STR-bulk-loads one independent tree per chunk.
// All trees share cfg.Accountant (one allocated here when nil) and their
// page IDs are offset to be disjoint, so they can also share an LRU
// buffer and the usual node-access accounting stays exactly additive
// across the partition. Points beyond 2-D are ordered on their first two
// axes, like BulkLoadHilbert; 1-D points on their single axis.
func BulkLoadSTRPartitioned(cfg Config, pts []geom.Point, ids []int64, parts int) ([]*Tree, error) {
	if parts < 1 {
		return nil, fmt.Errorf("rtree: %d partitions; need at least 1", parts)
	}
	cfg, err := cfg.withDefaults() // resolves the shared Accountant once
	if err != nil {
		return nil, err
	}
	if err := checkBulk(cfg.Dim, pts, ids); err != nil {
		return nil, err
	}
	perm := hilbertPerm(cfg.Dim, pts)
	trees := make([]*Tree, 0, parts)
	nextPage := cfg.FirstPage
	n := len(pts)
	for s := 0; s < parts; s++ {
		lo, hi := n*s/parts, n*(s+1)/parts
		cpts := make([]geom.Point, hi-lo)
		cids := make([]int64, hi-lo)
		for i, j := range perm[lo:hi] {
			cpts[i] = pts[j]
			cids[i] = idAt(ids, j)
		}
		scfg := cfg
		scfg.FirstPage = nextPage
		t, err := BulkLoadSTR(scfg, cpts, cids)
		if err != nil {
			return nil, err
		}
		nextPage += pagestore.PageID(t.Pages())
		trees = append(trees, t)
	}
	return trees, nil
}

// hilbertPerm returns the Hilbert-order permutation of pts over their
// bounding box (input order for an empty slice).
func hilbertPerm(dim int, pts []geom.Point) []int {
	if len(pts) == 0 {
		return nil
	}
	r := geom.BoundingRect(pts)
	hiX, hiY := r.Hi[0], r.Lo[0]
	loX, loY := r.Lo[0], r.Lo[0]
	if dim >= 2 {
		loY, hiY = r.Lo[1], r.Hi[1]
	}
	m := hilbert.NewMapper(hilbert.DefaultOrder, loX, loY, hiX, hiY)
	return hilbert.Perm(len(pts), m, func(i int) (float64, float64) {
		y := 0.0
		if dim >= 2 {
			y = pts[i][1]
		}
		return pts[i][0], y
	})
}

// prepareBulk validates a bulk-load input and returns the empty tree it
// will be packed into, sized for pts.
func prepareBulk(cfg Config, pts []geom.Point, ids []int64) (*Tree, error) {
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := checkBulk(t.cfg.Dim, pts, ids); err != nil {
		return nil, err
	}
	t.size = len(pts)
	return t, nil
}

// checkBulk rejects an id slice of the wrong length and any point of the
// wrong dimension or with a non-finite coordinate.
func checkBulk(dim int, pts []geom.Point, ids []int64) error {
	if ids != nil && len(ids) != len(pts) {
		return fmt.Errorf("rtree: %d ids for %d points", len(ids), len(pts))
	}
	for i, p := range pts {
		if len(p) != dim {
			return fmt.Errorf("rtree: point %d has dimension %d, tree dimension %d", i, len(p), dim)
		}
		if err := CheckFinite(i, p); err != nil {
			return err
		}
	}
	return nil
}

// idAt returns the identifier of point i: ids[i], or i when ids is nil.
func idAt(ids []int64, i int) int64 {
	if ids == nil {
		return int64(i)
	}
	return ids[i]
}

// packLevels lays the points out as leaf entries in the given order, packs
// them into leaves, then packs each level bottom-up until a single root
// remains. The final node of each level is kept at or above MinEntries by
// borrowing from its predecessor, so packed trees satisfy the same fill
// invariants as incrementally built ones. Pages are numbered level by
// level from the leaves up, left to right.
//
// Storage comes in per-level slabs, as for snapshot-loaded trees
// (buildNodes): the leaf coordinates in one slab, each point doubling as
// its entry's degenerate rectangle, and per level one slab each of nodes,
// routing entries and MBR corners. Entry slices are capacity-clipped, so
// a later Insert that overflows a node reallocates instead of clobbering
// its slab neighbour.
func (t *Tree) packLevels(pts []geom.Point, ids []int64, order []int) {
	dim := t.cfg.Dim
	coords := make([]float64, len(order)*dim)
	entries := make([]Entry, len(order))
	for r, i := range order {
		p := coords[r*dim : (r+1)*dim : (r+1)*dim]
		copy(p, pts[i])
		entries[r] = Entry{Rect: geom.Rect{Lo: p, Hi: p}, Point: p, ID: idAt(ids, i)}
	}

	M, m := t.cfg.MaxEntries, t.cfg.MinEntries
	level := 0
	for len(entries) > M {
		count := (len(entries) + M - 1) / M
		nodes := make([]node, count)
		parents := make([]Entry, count)
		corners := make([]float64, 2*dim*count)
		for k, lo := 0, 0; lo < len(entries); k++ {
			hi := lo + M
			if rem := len(entries) - hi; rem > 0 && rem < m {
				// Shrink this node so the final one reaches MinEntries.
				hi = len(entries) - m
			}
			hi = min(hi, len(entries))
			n := &nodes[k]
			n.page, n.level, n.entries = t.nextPage, level, entries[lo:hi:hi]
			t.nextPage++
			c := corners[2*dim*k : 2*dim*(k+1) : 2*dim*(k+1)]
			parents[k] = Entry{Rect: foldMBR(n.entries, c[:dim:dim], c[dim:]), child: n}
			lo = hi
		}
		entries = parents
		level++
	}
	t.root = &node{page: t.nextPage, level: level, entries: entries}
	t.nextPage++
	t.height = level + 1
}

// foldMBR computes the MBR of the non-empty es into lo and hi: one
// math.Min/math.Max fold per axis, the values a Rect.Union chain yields.
func foldMBR(es []Entry, lo, hi geom.Point) geom.Rect {
	copy(lo, es[0].Rect.Lo)
	copy(hi, es[0].Rect.Hi)
	for _, e := range es[1:] {
		for a := range lo {
			lo[a] = math.Min(lo[a], e.Rect.Lo[a])
			hi[a] = math.Max(hi[a], e.Rect.Hi[a])
		}
	}
	return geom.Rect{Lo: lo, Hi: hi}
}
