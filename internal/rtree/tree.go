// Package rtree implements the R*-tree of Beckmann et al. [BKSS90] together
// with every traversal the paper builds on: range search, depth-first
// nearest neighbor [RKV95], best-first (incremental) nearest neighbor
// [HS99] and incremental closest pairs over two trees [HS98, CMTV00].
//
// Queries traverse a Packed arena: flat structure-of-arrays node storage
// that the bulk loaders (PackSTR) write directly and Tree.Pack snapshots
// from an insertion-built tree. The arena is memory-resident but
// page-structured: every node keeps its page identifier and all query
// traversals are routed through a per-query Reader execution context,
// which charges each node access to the query's own
// pagestore.CostTracker and to the tree's shared pagestore.Accountant —
// reproducing the paper's node-access (NA) metric, optionally through an
// LRU buffer, while keeping unlimited concurrent read traversals safe.
//
// Query algorithms outside this package (SPM, MBM, F-MBM in internal/core)
// drive their own traversals through the exported Reader.PackedRoot and
// Reader.PackedChild accessors, so their node accesses are accounted
// identically, and the fused kernels in internal/geom turn their per-node
// loops into streaming passes over contiguous coordinate arrays.
//
// A Tree is either the R*-tree insertion builder (New, Insert, Delete),
// whose pointer-linked nodes exist only to be packed, or the immutable
// metadata shell of an arena (Packed.Tree) that the query layers pass
// around.
package rtree

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
)

// DefaultMaxEntries matches the paper's setup: 1 KB pages holding 50
// entries per node.
const DefaultMaxEntries = pagestore.DefaultPageCapacity

// defaultReinsertFraction is the 30% forced-reinsert share recommended by
// the R*-tree paper.
const defaultReinsertFraction = 0.3

// Entry is a slot of a node: either a routing entry (internal nodes, Rect
// bounds the child subtree) or a data entry (leaf nodes, a point and its
// caller-supplied identifier).
type Entry struct {
	Rect  geom.Rect
	child *node
	// Point and ID are meaningful for leaf entries only.
	Point geom.Point
	ID    int64
}

// IsLeafEntry reports whether the entry carries a data point rather than a
// child node.
func (e Entry) IsLeafEntry() bool { return e.child == nil }

type node struct {
	page    pagestore.PageID
	level   int // 0 = leaf
	entries []Entry
}

// Config parameterises a tree.
type Config struct {
	// Dim is the dimensionality of indexed points (default 2).
	Dim int
	// MaxEntries is the node capacity M (default DefaultMaxEntries).
	MaxEntries int
	// MinEntries is the minimum fill m (default 40% of MaxEntries).
	MinEntries int
	// ReinsertFraction is the share of entries removed on forced reinsert
	// (default 0.3). Set negative to disable forced reinsertion entirely
	// (plain R-tree overflow handling).
	ReinsertFraction float64
	// Accountant receives one access per node visited by query traversals,
	// shared by all concurrent readers of the tree. When nil a private
	// unbuffered accountant is allocated.
	Accountant *pagestore.Accountant
	// FirstPage offsets the page IDs assigned to nodes so several trees
	// can share one LRU buffer without collisions.
	FirstPage pagestore.PageID
}

func (c Config) withDefaults() (Config, error) {
	if c.Dim == 0 {
		c.Dim = 2
	}
	if c.Dim < 1 {
		return c, fmt.Errorf("rtree: dimension %d < 1", c.Dim)
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = DefaultMaxEntries
	}
	if c.MaxEntries < 4 {
		return c, fmt.Errorf("rtree: MaxEntries %d < 4", c.MaxEntries)
	}
	if c.MinEntries == 0 {
		c.MinEntries = (c.MaxEntries * 2) / 5
		if c.MinEntries < 2 {
			c.MinEntries = 2
		}
	}
	if c.MinEntries < 1 || c.MinEntries > c.MaxEntries/2 {
		return c, fmt.Errorf("rtree: MinEntries %d not in [1, MaxEntries/2=%d]",
			c.MinEntries, c.MaxEntries/2)
	}
	if c.ReinsertFraction == 0 {
		c.ReinsertFraction = defaultReinsertFraction
	}
	if c.ReinsertFraction >= 0.5 {
		return c, fmt.Errorf("rtree: ReinsertFraction %v must be < 0.5", c.ReinsertFraction)
	}
	if c.Accountant == nil {
		c.Accountant = pagestore.NewAccountant(0)
	}
	return c, nil
}

// Tree is an R*-tree over d-dimensional points: the insertion builder, or
// the shell of a packed arena. Insert and Delete mutate a builder and
// require external synchronisation; queries run on its Pack. A shell is
// immutable, so any number of queries may share it.
type Tree struct {
	cfg      Config
	root     *node // the builder's nodes; nil on a shell
	size     int
	height   int // number of levels; 1 = root is a leaf
	nextPage pagestore.PageID
	// shellOf, when non-nil, marks this tree as the metadata shell of a
	// packed arena: root is nil, the structure is immutable (Insert
	// fails, Delete reports false), and Bounds and CheckInvariants are
	// served from the arena.
	shellOf *Packed
}

// ErrImmutable reports a mutation on the shell tree of a packed arena:
// there are no nodes to change, and a borrowed arena's columns live in a
// read-only (typically memory-mapped) buffer.
var ErrImmutable = errors.New("rtree: tree is the shell of a packed arena and cannot be mutated; rebuild the index to change the data")

// Config returns the tree's effective configuration (defaults applied;
// for snapshot-loaded trees, the writer's structural parameters). The
// overlay layer uses it to bulk-load compacted replacements and delta
// trees with identical geometry.
func (t *Tree) Config() Config { return t.cfg }

// New returns an empty tree.
func New(cfg Config) (*Tree, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg, nextPage: cfg.FirstPage}
	t.root = t.newNode(0)
	t.height = 1
	return t, nil
}

func (t *Tree) newNode(level int) *node {
	n := &node{page: t.nextPage, level: level,
		entries: make([]Entry, 0, t.cfg.MaxEntries+1)}
	t.nextPage++
	return n
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.cfg.Dim }

// Accountant returns the shared accountant charged by all traversals.
func (t *Tree) Accountant() *pagestore.Accountant { return t.cfg.Accountant }

// Pages returns the number of node pages allocated so far.
func (t *Tree) Pages() int64 { return int64(t.nextPage - t.cfg.FirstPage) }

// Bounds returns the MBR of the indexed points; ok is false when empty.
func (t *Tree) Bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	if t.root == nil {
		return t.shellOf.Bounds()
	}
	return t.nodeMBR(t.root), true
}

func (t *Tree) nodeMBR(n *node) geom.Rect {
	r := n.entries[0].Rect
	for _, e := range n.entries[1:] {
		r = r.Union(e.Rect)
	}
	return r
}

// Insert adds a point with its identifier. Duplicate points (and duplicate
// ids) are allowed, matching real spatial data.
func (t *Tree) Insert(p geom.Point, id int64) error {
	if t.root == nil {
		return ErrImmutable
	}
	if len(p) != t.cfg.Dim {
		return fmt.Errorf("rtree: point dimension %d, tree dimension %d", len(p), t.cfg.Dim)
	}
	if err := CheckFinite(0, p); err != nil {
		return err
	}
	e := Entry{Rect: geom.RectFromPoint(p), Point: p.Clone(), ID: id}
	reinserted := make(map[int]bool)
	t.insertEntry(e, 0, reinserted)
	t.size++
	return nil
}

// insertEntry places e into a node at the given level, handling overflow by
// forced reinsertion (once per level per top-level insertion, tracked by
// reinserted) or R* split.
func (t *Tree) insertEntry(e Entry, level int, reinserted map[int]bool) {
	path := t.chooseSubtree(e.Rect, level)
	n := path[len(path)-1]
	n.entries = append(n.entries, e)
	t.adjustPathMBRs(path, e.Rect)

	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.entries) <= t.cfg.MaxEntries {
			break
		}
		isRoot := n == t.root
		if !isRoot && t.cfg.ReinsertFraction > 0 && !reinserted[n.level] {
			reinserted[n.level] = true
			t.forcedReinsert(n, path[:i+1], reinserted)
			break // reinsertion re-enters insertEntry; path no longer valid
		}
		t.splitNode(n, path[:i])
	}
}

// chooseSubtree returns the root-to-target path of nodes, where the target
// is the node at the requested level best suited to receive r (R* §4.1).
func (t *Tree) chooseSubtree(r geom.Rect, level int) []*node {
	path := []*node{t.root}
	n := t.root
	for n.level > level {
		var best int
		if n.level == level+1 && level == 0 {
			best = chooseLeastOverlapEnlargement(n.entries, r)
		} else {
			best = chooseLeastAreaEnlargement(n.entries, r)
		}
		n = n.entries[best].child
		path = append(path, n)
	}
	return path
}

// chooseLeastAreaEnlargement picks the entry whose MBR needs the least area
// growth to absorb r; ties resolved by smallest area.
func chooseLeastAreaEnlargement(entries []Entry, r geom.Rect) int {
	best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
	for i, e := range entries {
		enl := e.Rect.Enlargement(r)
		area := e.Rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// chooseLeastOverlapEnlargement implements the R* leaf-level criterion:
// minimum increase of overlap with sibling entries, ties by least area
// enlargement, then least area.
func chooseLeastOverlapEnlargement(entries []Entry, r geom.Rect) int {
	best := 0
	bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
	for i, e := range entries {
		enlarged := e.Rect.Union(r)
		var overlapDelta float64
		for j, o := range entries {
			if j == i {
				continue
			}
			overlapDelta += enlarged.OverlapArea(o.Rect) - e.Rect.OverlapArea(o.Rect)
		}
		enl := e.Rect.Enlargement(r)
		area := e.Rect.Area()
		if overlapDelta < bestOverlap ||
			(overlapDelta == bestOverlap && enl < bestEnl) ||
			(overlapDelta == bestOverlap && enl == bestEnl && area < bestArea) {
			best, bestOverlap, bestEnl, bestArea = i, overlapDelta, enl, area
		}
	}
	return best
}

// adjustPathMBRs grows the routing rectangles along the insertion path so
// each parent entry still bounds its child.
func (t *Tree) adjustPathMBRs(path []*node, r geom.Rect) {
	for i := len(path) - 2; i >= 0; i-- {
		parent, child := path[i], path[i+1]
		for j := range parent.entries {
			if parent.entries[j].child == child {
				parent.entries[j].Rect = parent.entries[j].Rect.Union(r)
				break
			}
		}
	}
}

// forcedReinsert removes the ReinsertFraction of entries whose centres lie
// farthest from the node's MBR centre and reinserts them closest-first
// (R* "close reinsert").
func (t *Tree) forcedReinsert(n *node, path []*node, reinserted map[int]bool) {
	p := int(float64(t.cfg.MaxEntries+1) * t.cfg.ReinsertFraction)
	if p < 1 {
		p = 1
	}
	center := t.nodeMBR(n).Center()
	type distEntry struct {
		e Entry
		d float64
	}
	ds := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		ds[i] = distEntry{e, geom.DistSq(e.Rect.Center(), center)}
	}
	slices.SortFunc(ds, func(a, b distEntry) int {
		switch {
		case a.d > b.d:
			return -1
		case a.d < b.d:
			return 1
		default:
			return 0
		}
	})
	removed := make([]Entry, 0, p)
	for i := 0; i < p; i++ {
		removed = append(removed, ds[i].e)
	}
	n.entries = n.entries[:0]
	for i := p; i < len(ds); i++ {
		n.entries = append(n.entries, ds[i].e)
	}
	t.recomputePathMBRs(path)
	// Reinsert closest-first.
	for i := len(removed) - 1; i >= 0; i-- {
		t.insertEntry(removed[i], n.level, reinserted)
	}
}

// recomputePathMBRs tightens the routing rectangles along path after
// entries were removed.
func (t *Tree) recomputePathMBRs(path []*node) {
	for i := len(path) - 2; i >= 0; i-- {
		parent, child := path[i], path[i+1]
		for j := range parent.entries {
			if parent.entries[j].child == child {
				parent.entries[j].Rect = t.nodeMBR(child)
				break
			}
		}
	}
}

// splitNode splits an overflowing node using the R* topological split and
// installs the new sibling in the parent (growing the tree at the root).
// ancestors is the path from the root down to n's parent.
func (t *Tree) splitNode(n *node, ancestors []*node) {
	group1, group2 := rstarSplit(n.entries, t.cfg.MinEntries)
	sibling := t.newNode(n.level)
	n.entries = group1
	sibling.entries = group2

	if n == t.root {
		newRoot := t.newNode(n.level + 1)
		newRoot.entries = append(newRoot.entries,
			Entry{Rect: t.nodeMBR(n), child: n},
			Entry{Rect: t.nodeMBR(sibling), child: sibling})
		t.root = newRoot
		t.height++
		return
	}
	parent := ancestors[len(ancestors)-1]
	for j := range parent.entries {
		if parent.entries[j].child == n {
			parent.entries[j].Rect = t.nodeMBR(n)
			break
		}
	}
	parent.entries = append(parent.entries,
		Entry{Rect: t.nodeMBR(sibling), child: sibling})
	// The parent may now overflow; the caller's loop handles it.
}

// rstarSplit partitions entries into two groups following the R*-tree
// split: pick the axis with minimal margin sum over all distributions,
// then the distribution with minimal overlap (ties: minimal total area).
func rstarSplit(entries []Entry, minEntries int) (g1, g2 []Entry) {
	m := minEntries
	dim := entries[0].Rect.Dim()
	bestAxis, bestByLower := -1, false
	bestMargin := math.Inf(1)

	sorted := make([]Entry, len(entries))
	for axis := 0; axis < dim; axis++ {
		for _, byLower := range []bool{true, false} {
			copy(sorted, entries)
			sortEntries(sorted, axis, byLower)
			margin := 0.0
			forEachDistribution(len(sorted), m, func(k int) {
				margin += mbrOf(sorted[:k]).Margin() + mbrOf(sorted[k:]).Margin()
			})
			if margin < bestMargin {
				bestMargin, bestAxis, bestByLower = margin, axis, byLower
			}
		}
	}

	copy(sorted, entries)
	sortEntries(sorted, bestAxis, bestByLower)
	bestK, bestOverlap, bestArea := -1, math.Inf(1), math.Inf(1)
	forEachDistribution(len(sorted), m, func(k int) {
		r1, r2 := mbrOf(sorted[:k]), mbrOf(sorted[k:])
		overlap := r1.OverlapArea(r2)
		area := r1.Area() + r2.Area()
		if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = k, overlap, area
		}
	})

	g1 = make([]Entry, bestK)
	copy(g1, sorted[:bestK])
	g2 = make([]Entry, len(sorted)-bestK)
	copy(g2, sorted[bestK:])
	return g1, g2
}

func sortEntries(es []Entry, axis int, byLower bool) {
	cmp := func(x, y float64) int {
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	}
	slices.SortStableFunc(es, func(a, b Entry) int {
		if byLower {
			if c := cmp(a.Rect.Lo[axis], b.Rect.Lo[axis]); c != 0 {
				return c
			}
			return cmp(a.Rect.Hi[axis], b.Rect.Hi[axis])
		}
		if c := cmp(a.Rect.Hi[axis], b.Rect.Hi[axis]); c != 0 {
			return c
		}
		return cmp(a.Rect.Lo[axis], b.Rect.Lo[axis])
	})
}

// forEachDistribution invokes fn with every legal first-group size k for a
// node of n entries and minimum fill m: k = m .. n-m.
func forEachDistribution(n, m int, fn func(k int)) {
	for k := m; k <= n-m; k++ {
		fn(k)
	}
}

func mbrOf(es []Entry) geom.Rect {
	r := es[0].Rect
	for _, e := range es[1:] {
		r = r.Union(e.Rect)
	}
	return r
}

// Delete removes one occurrence of the point with the given id. It returns
// false when no matching entry exists. Underflowing nodes are dissolved and
// their entries reinserted at the same level (condense-tree).
func (t *Tree) Delete(p geom.Point, id int64) bool {
	if t.size == 0 || len(p) != t.cfg.Dim || t.root == nil {
		return false
	}
	var path []*node
	leaf, idx := t.findLeaf(t.root, p, id, &path)
	if leaf == nil {
		return false
	}
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--

	// Condense: dissolve underflowing nodes bottom-up, collecting orphans.
	type orphan struct {
		entries []Entry
		level   int
	}
	var orphans []orphan
	for i := len(path) - 1; i >= 1; i-- {
		n := path[i]
		parent := path[i-1]
		if len(n.entries) < t.cfg.MinEntries {
			for j := range parent.entries {
				if parent.entries[j].child == n {
					parent.entries = append(parent.entries[:j], parent.entries[j+1:]...)
					break
				}
			}
			if len(n.entries) > 0 {
				orphans = append(orphans, orphan{n.entries, n.level})
			}
		} else {
			for j := range parent.entries {
				if parent.entries[j].child == n {
					parent.entries[j].Rect = t.nodeMBR(n)
					break
				}
			}
		}
	}
	// Shrink the root while it is an internal node with a single child.
	for t.root.level > 0 && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
		t.height--
	}
	if t.root.level > 0 && len(t.root.entries) == 0 {
		// All children dissolved; restart from an empty leaf root.
		t.root = t.newNode(0)
		t.height = 1
	}
	// Reinsert orphaned entries at their original levels, lowest first so
	// the tree is tall enough when higher-level entries return.
	slices.SortFunc(orphans, func(a, b orphan) int { return a.level - b.level })
	for _, o := range orphans {
		for _, e := range o.entries {
			if o.level >= t.height {
				// The tree shrank below the orphan's level; splice the
				// orphan subtree back by reinserting its data points.
				t.reinsertSubtree(e)
				continue
			}
			t.insertEntry(e, o.level, make(map[int]bool))
		}
	}
	return true
}

// reinsertSubtree reinserts every data point under e (used when the tree
// shrank below an orphan's level).
func (t *Tree) reinsertSubtree(e Entry) {
	if e.child == nil {
		t.insertEntry(e, 0, make(map[int]bool))
		return
	}
	for _, c := range e.child.entries {
		t.reinsertSubtree(c)
	}
}

// findLeaf locates the leaf and entry index holding (p, id), appending the
// root-to-leaf path to *path. Returns (nil, -1) when absent.
func (t *Tree) findLeaf(n *node, p geom.Point, id int64, path *[]*node) (*node, int) {
	*path = append(*path, n)
	if n.level == 0 {
		for i, e := range n.entries {
			if e.ID == id && e.Point.Equal(p) {
				return n, i
			}
		}
		*path = (*path)[:len(*path)-1]
		return nil, -1
	}
	for _, e := range n.entries {
		if e.Rect.ContainsPoint(p) {
			if leaf, i := t.findLeaf(e.child, p, id, path); leaf != nil {
				return leaf, i
			}
		}
	}
	*path = (*path)[:len(*path)-1]
	return nil, -1
}
