package rtree

import (
	"math/rand"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/radix"
)

// refTree is the pointer-linked tree the reference loaders build (see
// referenceLoad): one Go struct per node, each entry a rectangle plus a
// child node or a data point. pack lays it out as an arena, so a loader's
// arena can be checked against it column for column.
type refTree struct {
	cfg      Config
	root     *node
	size     int
	height   int // number of levels; 1 = root is a leaf
	nextPage pagestore.PageID
}

// entry is a slot of a node: a routing entry (internal nodes, Rect bounds
// the child subtree) or a data entry (leaf nodes, a point and its id).
type entry struct {
	Rect  geom.Rect
	child *node
	// Point and ID are meaningful for leaf entries only.
	Point geom.Point
	ID    int64
}

type node struct {
	page    pagestore.PageID
	level   int // 0 = leaf
	entries []entry
}

// newRefTree returns an empty tree: one leaf root on page FirstPage.
func newRefTree(cfg Config) (*refTree, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &refTree{cfg: cfg, nextPage: cfg.FirstPage}
	t.root = t.newNode(0)
	t.height = 1
	return t, nil
}

func (t *refTree) newNode(level int) *node {
	n := &node{page: t.nextPage, level: level,
		entries: make([]entry, 0, t.cfg.MaxEntries+1)}
	t.nextPage++
	return n
}

// pages returns the number of node pages allocated.
func (t *refTree) pages() int64 { return int64(t.nextPage - t.cfg.FirstPage) }

// bounds returns the MBR of the indexed points; ok is false when empty.
func (t *refTree) bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	return mbrOf(t.root.entries), true
}

func mbrOf(es []entry) geom.Rect {
	r := es[0].Rect
	for _, e := range es[1:] {
		r = r.Union(e.Rect)
	}
	return r
}

// pack lays the tree's nodes out as a packed arena, page identifiers and
// entry order included: node ids and routing slots in depth-first
// preorder, leaf slots in leaf order.
func (t *refTree) pack() *Packed {
	// First pass: count nodes and slots so every arena is allocated once.
	var nodes, rslots, lslots int
	var count func(n *node)
	count = func(n *node) {
		nodes++
		if n.level == 0 {
			lslots += len(n.entries)
			return
		}
		rslots += len(n.entries)
		for _, e := range n.entries {
			count(e.child)
		}
	}
	count(t.root)

	p := &Packed{
		dim: t.cfg.Dim, size: t.size, height: t.height,
		acct:  t.cfg.Accountant,
		level: make([]int32, 0, nodes),
		page:  make([]pagestore.PageID, 0, nodes),
		start: make([]int32, 0, nodes),
		end:   make([]int32, 0, nodes),
		child: make([]int32, rslots),
		rlo:   make([][]float64, t.cfg.Dim),
		rhi:   make([][]float64, t.cfg.Dim),
		pc:    make([][]float64, t.cfg.Dim),
		ids:   make([]int64, 0, lslots),
	}
	for a := 0; a < t.cfg.Dim; a++ {
		p.rlo[a] = make([]float64, rslots)
		p.rhi[a] = make([]float64, rslots)
		p.pc[a] = make([]float64, 0, lslots)
	}

	// Second pass: depth-first preorder fill. A node's slot range is
	// claimed before its children are visited, and each routing slot's
	// child id is patched in as the recursion returns.
	var nextR, nextL int32
	var fill func(n *node) int32
	fill = func(n *node) int32 {
		id := int32(len(p.level))
		p.level = append(p.level, int32(n.level))
		p.page = append(p.page, n.page)
		if n.level == 0 {
			p.start = append(p.start, nextL)
			for _, e := range n.entries {
				for a := 0; a < p.dim; a++ {
					p.pc[a] = append(p.pc[a], e.Point[a])
				}
				p.ids = append(p.ids, e.ID)
			}
			nextL += int32(len(n.entries))
			p.end = append(p.end, nextL)
			return id
		}
		s := nextR
		nextR += int32(len(n.entries))
		p.start = append(p.start, s)
		p.end = append(p.end, nextR)
		for i, e := range n.entries {
			for a := 0; a < p.dim; a++ {
				p.rlo[a][s+int32(i)] = e.Rect.Lo[a]
				p.rhi[a][s+int32(i)] = e.Rect.Hi[a]
			}
		}
		for i, e := range n.entries {
			p.child[s+int32(i)] = fill(e.child)
		}
		return id
	}
	p.root = fill(t.root)
	p.setShell(t.cfg, t.nextPage)
	return p
}

// packShuffled packs pts (ids are the slice positions) with the leaves
// in a random order: leaf and routing rectangles then overlap their
// siblings' everywhere, an irregular shape no STR or Hilbert order
// produces, which the traversals must answer exactly on too.
func packShuffled(t testing.TB, cfg Config, pts []geom.Point, rng *rand.Rand) *Packed {
	t.Helper()
	cols, err := Columns(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := adopt(cfg, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	order := l.words
	for i := range order {
		order[i] = radix.Word(0, i)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	l.apply(order)
	return packOrdered(l.cfg, l.pc, l.ids)
}
