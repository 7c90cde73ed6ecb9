package rtree

import (
	"sync"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
)

// Packed is an immutable, cache-packed snapshot of a Tree for query-time
// use: every node lives in one flat arena indexed by int32 node ids, child
// links are indices instead of pointers, and entry geometry is stored in
// structure-of-arrays form — per-axis coordinate slices — so the per-node
// candidate loops of the traversals become streaming passes over
// contiguous float64 arrays (see the fused kernels in internal/geom).
//
// Two separate slot spaces hold the entries, both in the tree's
// depth-first preorder:
//
//   - routing slots (internal-node entries): per-axis rectangle corners
//     rlo/rhi plus the child node id;
//   - leaf slots (data entries): per-axis point coordinates pc and the
//     caller's id.
//
// The coordinate columns are the arena's only copy of the points: there
// is no point-major view. A traversal that needs a leaf point as a
// geom.Point gathers it into its own per-query scratch with PointInto,
// and the result accumulators copy accepted points into rows they own,
// so an emitted result never aliases the arena (or, on a mapped arena,
// the file).
//
// Node i owns the contiguous slot range [start[i], end[i]) of whichever
// space its level selects. Page ids are preserved from the tree the
// loader or Pack laid out, and every traversal charges the tree's
// accountant, so per-query CostTracker and aggregate node-access
// accounting follow the paper's page model exactly.
//
// An arena is immutable. Its Tree is a metadata shell (size, height,
// page range, configuration) that the query layers pass around; a
// mutation is a new arena, built by a loader or by Pack.
type Packed struct {
	src    *Tree
	dim    int
	size   int
	height int
	acct   *pagestore.Accountant

	root int32

	// Per-node arrays, indexed by node id (depth-first preorder).
	level []int32
	page  []pagestore.PageID
	start []int32
	end   []int32

	// Routing-slot arrays (internal-node entries).
	child    []int32
	rlo, rhi [][]float64 // rlo[axis][slot]

	// Leaf-slot arrays (data entries).
	pc  [][]float64 // pc[axis][slot]
	ids []int64

	// prep, when non-nil, holds the deferred verification of a borrowed
	// arena (PackedFromSnapshotBorrowed); Prepare must succeed before the
	// arena is traversed. nil for arenas built by Pack or copied by
	// PackedFromSnapshot, which are complete at construction.
	prep *packedPrep

	// mbr is the root MBR, set at construction (by Prepare for a
	// borrowed arena, whose columns are unverified until then).
	mbr geom.Rect
}

// packedPrep defers a borrowed arena's expensive open work — checksum
// verification and structural validation — to first use, exactly once,
// safely under concurrency.
type packedPrep struct {
	once sync.Once
	fn   func() error
	err  error
}

// Prepare runs the deferred verification of a borrowed arena — section
// checksums over the backing buffer and structural validation of the
// node graph — and computes the root MBR. It allocates nothing per
// point: the coordinate columns stay in the backing buffer as the only
// copy. It is idempotent, safe for concurrent callers (the first
// outcome is cached) and a no-op on arenas that were complete at
// construction. Every traversal requires a prior successful Prepare;
// the public layer calls it on each query entry, so a corrupt mapping
// surfaces as this error on first use, never as a fault mid-traversal.
func (p *Packed) Prepare() error {
	if p.prep == nil {
		return nil
	}
	p.prep.once.Do(func() { p.prep.err = p.prep.fn() })
	return p.prep.err
}

// Bounds returns the MBR of the indexed points; ok is false when the
// arena is empty (or a borrowed arena fails its verification).
func (p *Packed) Bounds() (geom.Rect, bool) {
	if p.size == 0 || p.Prepare() != nil {
		return geom.Rect{}, false
	}
	return p.mbr, true
}

// Pack lays the builder's current nodes out as a packed arena, page
// identifiers and entry order included, so queries on it charge exactly
// the accesses a traversal of the nodes would. The arena's Tree is a new
// shell: later mutations of t do not affect it. Pack must not run
// concurrently with Insert or Delete.
func (t *Tree) Pack() *Packed {
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

// setShell attaches the arena's metadata shell and computes its root
// MBR. A borrowed arena defers the MBR to Prepare instead.
func (p *Packed) setShell(cfg Config, nextPage pagestore.PageID) {
	p.src = &Tree{cfg: cfg, size: p.size, height: p.height, nextPage: nextPage, shellOf: p}
	if p.prep == nil {
		p.mbr = p.rootMBR()
	}
}

// Valid reports whether p is the arena of tree t.
func (p *Packed) Valid(t *Tree) bool {
	return p != nil && p.src == t
}

// Tree returns the arena's metadata shell.
func (p *Packed) Tree() *Tree { return p.src }

// Len returns the number of indexed points.
func (p *Packed) Len() int { return p.size }

// Dim returns the snapshot's dimensionality.
func (p *Packed) Dim() int { return p.dim }

// Height returns the number of levels (1 when the root is a leaf).
func (p *Packed) Height() int { return p.height }

// Nodes returns the number of nodes in the arena.
func (p *Packed) Nodes() int { return len(p.level) }

// Root returns the root node id without charging an access (use
// Reader.PackedRoot on query paths).
func (p *Packed) Root() int32 { return p.root }

// IsLeaf reports whether node n is at leaf level.
func (p *Packed) IsLeaf(n int32) bool { return p.level[n] == 0 }

// NodeRange returns node n's slot range [s, e) — routing slots for
// internal nodes, leaf slots for leaves.
func (p *Packed) NodeRange(n int32) (s, e int32) { return p.start[n], p.end[n] }

// ChildOf returns the child node id of routing slot s.
func (p *Packed) ChildOf(s int32) int32 { return p.child[s] }

// RectSoA returns the per-axis corner arrays of the routing slots.
func (p *Packed) RectSoA() (lo, hi [][]float64) { return p.rlo, p.rhi }

// PointSoA returns the per-axis coordinate arrays of the leaf slots.
func (p *Packed) PointSoA() [][]float64 { return p.pc }

// PointInto gathers leaf slot s's coordinates from the axis columns into
// dst, growing it only when its capacity is too small, and returns it —
// the allocation-free bridge from a slot to the geom.Point helpers. The
// gathered values are the column values bit for bit. dst is the
// caller's scratch: it is overwritten by the next gather into it.
func (p *Packed) PointInto(s int32, dst geom.Point) geom.Point {
	if cap(dst) < p.dim {
		dst = make(geom.Point, p.dim)
	}
	dst = dst[:p.dim]
	for a := range dst {
		dst[a] = p.pc[a][s]
	}
	return dst
}

// LeafID returns the caller-supplied id of leaf slot s.
func (p *Packed) LeafID(s int32) int64 { return p.ids[s] }

// NumLeafSlots returns the total number of leaf slots (== Len()).
func (p *Packed) NumLeafSlots() int { return len(p.ids) }

// RectInto copies routing slot s's rectangle into dst's corner slices,
// growing them only when their capacity is too small — the allocation-free
// bridge for the few per-node bounds (heuristic 3, F-MBM leaf ordering)
// that operate on one rectangle rather than a range.
func (p *Packed) RectInto(s int32, dst *geom.Rect) {
	if cap(dst.Lo) < p.dim {
		dst.Lo = make(geom.Point, p.dim)
	}
	if cap(dst.Hi) < p.dim {
		dst.Hi = make(geom.Point, p.dim)
	}
	dst.Lo, dst.Hi = dst.Lo[:p.dim], dst.Hi[:p.dim]
	for a := 0; a < p.dim; a++ {
		dst.Lo[a] = p.rlo[a][s]
		dst.Hi[a] = p.rhi[a][s]
	}
}

// PackedRef encodes one packed entry on traversal data structures: leaf
// slot s as s (non-negative), routing slot s as ^s (negative). A single
// int32 replaces the 88-byte Entry in candidate lists and heaps.
type PackedRef = int32

// LeafRef and NodeRef build refs; RefSlot decodes either kind.
func LeafRef(s int32) PackedRef { return s }

// NodeRef encodes routing slot s.
func NodeRef(s int32) PackedRef { return ^s }

// RefSlot returns the slot index and whether the ref is a leaf slot.
func RefSlot(r PackedRef) (s int32, leaf bool) {
	if r >= 0 {
		return r, true
	}
	return ^r, false
}

// Reader is a per-query execution context: a read-only view of the arena
// whose node accesses are charged to one query's CostTracker (may be nil:
// aggregate-only accounting) as well as the tree's shared Accountant.
// Create one Reader per query; a Reader itself is a cheap value but must
// not be shared between goroutines, because the tracker it carries is
// unsynchronised by design.
type Reader struct {
	p  *Packed
	tk *pagestore.CostTracker
}

// Reader returns an execution context over the arena, charging tk (nil
// for aggregate-only accounting).
func (p *Packed) Reader(tk *pagestore.CostTracker) Reader {
	return Reader{p: p, tk: tk}
}

// Packed returns the arena this reader traverses.
func (r Reader) Packed() *Packed { return r.p }

// Cost returns the reader's per-query tracker (nil when aggregate-only).
func (r Reader) Cost() *pagestore.CostTracker { return r.tk }

// PackedRoot returns the root node id, charging one node access.
func (r Reader) PackedRoot() int32 {
	r.p.acct.Access(r.p.page[r.p.root], r.tk)
	return r.p.root
}

// PackedChild resolves routing slot s to its child node id, charging one
// node access.
func (r Reader) PackedChild(s int32) int32 {
	c := r.p.child[s]
	r.p.acct.Access(r.p.page[c], r.tk)
	return c
}

// PointIn reports whether leaf slot s lies inside r, boundaries
// inclusive: r.ContainsPoint of the slot's point, without gathering it.
func (p *Packed) PointIn(s int32, r geom.Rect) bool {
	for a := 0; a < p.dim; a++ {
		if v := p.pc[a][s]; v < r.Lo[a] || v > r.Hi[a] {
			return false
		}
	}
	return true
}

// RectIntersects reports whether routing slot s's rectangle intersects
// r: r.Intersects of the slot's rectangle, without gathering it.
func (p *Packed) RectIntersects(s int32, r geom.Rect) bool {
	for a := 0; a < p.dim; a++ {
		if r.Hi[a] < p.rlo[a][s] || p.rhi[a][s] < r.Lo[a] {
			return false
		}
	}
	return true
}

// growFloat64 returns dst with length n (contents undefined), reallocating
// only when capacity is short — the scratch-buffer growth helper of the
// packed traversals.
func growFloat64(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// search walks node n for Reader.Search; pt is the gather scratch handed
// to fn.
func (rd Reader) search(n int32, r geom.Rect, pt geom.Point, fn func(geom.Point, int64) bool) bool {
	p := rd.p
	s, e := p.start[n], p.end[n]
	if p.level[n] == 0 {
		for i := s; i < e; i++ {
			if p.PointIn(i, r) && !fn(p.PointInto(i, pt), p.ids[i]) {
				return false
			}
		}
		return true
	}
	for i := s; i < e; i++ {
		if p.RectIntersects(i, r) && !rd.search(rd.PackedChild(i), r, pt, fn) {
			return false
		}
	}
	return true
}

// All invokes fn for every indexed point in depth-first order — a pure
// streaming pass over the flat leaf arrays, without charging node
// accesses (a bookkeeping scan, not a simulated disk traversal). Each
// point is gathered into one scratch point reused for the whole scan, so
// fn must not retain pt: copy it to keep it.
func (p *Packed) All(fn func(pt geom.Point, id int64) bool) {
	if p.Prepare() != nil {
		return // unverifiable borrowed arena; opens surfaced the error
	}
	pt := make(geom.Point, p.dim)
	for i := range p.ids {
		if !fn(p.PointInto(int32(i), pt), p.ids[i]) {
			return
		}
	}
}
