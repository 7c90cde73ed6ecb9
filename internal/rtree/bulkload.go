package rtree

import (
	"fmt"
	"math"

	"gnn/internal/geom"
	"gnn/internal/hilbert"
	"gnn/internal/pagestore"
	"gnn/internal/radix"
)

// NonFiniteError reports a point with a coordinate that is NaN, infinite
// or beyond ±maxCoord. No index accepts one: a NaN fails every comparison
// and math.Min/math.Max carry it into every MBR above the point, so
// queries silently miss neighbours; an infinity makes distances and MBR
// extents infinite and their differences NaN; and a finite coordinate
// beyond the bound can make a squared distance overflow to +Inf, which
// the kernels' pruning treats as unreachable, so a query answers too few
// results.
type NonFiniteError struct {
	Index int     // position of the point in a bulk-load input; 0 for a single insert
	Axis  int     // the offending coordinate
	Value float64 // NaN, ±Inf or a finite value beyond ±maxCoord
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("rtree: point %d has coordinate %d out of range (%v); coordinates must be finite and within ±%g",
		e.Index, e.Axis, e.Value, maxCoord)
}

// maxCoord bounds every coordinate's magnitude. Two points within it
// differ by at most 2·maxCoord per axis, so a squared distance in d
// dimensions is at most d·(2·maxCoord)² = d·4e300, finite (below
// math.MaxFloat64 ≈ 1.8e308) for every d below about 4.5e7; a rectangle's
// mindist and every aggregate of such distances stay finite with it.
const maxCoord = 1e150

// inRange reports whether v is a coordinate an index accepts: not NaN
// (which fails the comparison) and at most maxCoord in magnitude.
func inRange(v float64) bool { return math.Abs(v) <= maxCoord }

// CheckFinite returns a *NonFiniteError for the first coordinate of p
// that is NaN, infinite or beyond ±maxCoord, reported as the point at
// position i, or nil. Every path by which a point enters an index or a
// query runs it or the same check: the bulk loads here, and the writes
// and query groups one layer up.
func CheckFinite(i int, p geom.Point) error {
	for a, v := range p {
		if !inRange(v) {
			return &NonFiniteError{Index: i, Axis: a, Value: v}
		}
	}
	return nil
}

// Columns copies pts into one axis-major coordinate buffer of stride
// len(pts) — coordinate a of point i at cols[a*len(pts)+i] — the input
// PackSTR and PackSTRPartitioned adopt as the new arena's leaf columns,
// rejecting a point whose dimension is not cfg.Dim (after defaults).
// The packers check everything else.
func Columns[P ~[]float64](cfg Config, pts []P) ([]float64, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := len(pts)
	cols := make([]float64, n*cfg.Dim)
	for i, p := range pts {
		if len(p) != cfg.Dim {
			return nil, fmt.Errorf("rtree: point %d has dimension %d, tree dimension %d", i, len(p), cfg.Dim)
		}
		for a, v := range p {
			cols[a*n+i] = v
		}
	}
	return cols, nil
}

// PackSTR bulk-loads the points of an axis-major coordinate buffer
// (coordinate a of point i is cols[a*n+i], n points in all; see
// Columns) with the Sort-Tile-Recursive algorithm, writing the packed
// arena directly: points are tiled into vertical slabs of √(n/M) tiles,
// each slab sorted on the second axis, and leaves packed to capacity;
// each upper level groups consecutive nodes of the level below. ids[i]
// identifies point i; nil numbers the points from 0.
//
// PackSTR takes cols and ids over: it reorders both in place into leaf
// order and the arena adopts them as its leaf columns, so the buffer the
// caller filled is the arena's only copy of the points. The caller must
// not use either afterwards. The arena's Tree() is its immutable shell;
// its layout is packOrdered's.
func PackSTR(cfg Config, cols []float64, ids []int64) (*Packed, error) {
	cfg, pc, ids, err := adoptColumns(cfg, cols, ids)
	if err != nil {
		return nil, err
	}
	var b sortBuffers
	b.strOrder(cfg, pc, ids)
	return packOrdered(cfg, pc, ids), nil
}

// packHilbert is PackSTR with the leaves in Hilbert order instead — the
// classic Hilbert-packed R-tree. Only the first two dimensions contribute
// to the ordering.
func packHilbert(cfg Config, cols []float64, ids []int64) (*Packed, error) {
	cfg, pc, ids, err := adoptColumns(cfg, cols, ids)
	if err != nil {
		return nil, err
	}
	var b sortBuffers
	b.hilbertOrder(pc, ids)
	return packOrdered(cfg, pc, ids), nil
}

// PackSTRPartitioned Hilbert-partitions the points into parts contiguous
// chunks of near-equal size (the classic shard split: sort by Hilbert
// value, cut the curve into parts runs, so every chunk is spatially
// coherent) and STR-packs one independent arena per chunk, as PackSTR
// does. It takes cols and ids over as PackSTR does: the split reorders
// them into curve order in place, so each chunk's columns are one
// contiguous run of every axis, which its arena adopts after STR-ordering
// it in place. All arenas share cfg.Accountant (one allocated here when
// nil) and their page IDs are offset to be disjoint, so they can also
// share an LRU buffer and the usual node-access accounting stays exactly
// additive across the partition. Points beyond 2-D are ordered on their
// first two axes, like packHilbert; 1-D points on their single axis.
func PackSTRPartitioned(cfg Config, cols []float64, ids []int64, parts int) ([]*Packed, error) {
	if parts < 1 {
		return nil, fmt.Errorf("rtree: %d partitions; need at least 1", parts)
	}
	cfg, pc, ids, err := adoptColumns(cfg, cols, ids) // resolves the shared Accountant once
	if err != nil {
		return nil, err
	}
	var b sortBuffers
	b.hilbertOrder(pc, ids)
	n := len(ids)
	out := make([]*Packed, 0, parts)
	for s := 0; s < parts; s++ {
		lo, hi := n*s/parts, n*(s+1)/parts
		chunk := make([][]float64, len(pc))
		for a, col := range pc {
			chunk[a] = col[lo:hi:hi]
		}
		cids := ids[lo:hi:hi]
		b.strOrder(cfg, chunk, cids)
		p := packOrdered(cfg, chunk, cids)
		cfg.FirstPage += pagestore.PageID(p.Tree().Pages())
		out = append(out, p)
	}
	return out, nil
}

// adoptColumns resolves cfg's defaults, rejects a coordinate buffer that
// does not divide into cfg.Dim axes, an id slice of the wrong length and
// any coordinate CheckFinite rejects, and returns the buffer's axis
// columns and the ids (numbered from 0 when ids is nil).
func adoptColumns(cfg Config, cols []float64, ids []int64) (Config, [][]float64, []int64, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return cfg, nil, nil, err
	}
	dim := cfg.Dim
	if len(cols)%dim != 0 {
		return cfg, nil, nil, fmt.Errorf("rtree: %d coordinates do not divide into %d-dimensional points", len(cols), dim)
	}
	n := len(cols) / dim
	if n > math.MaxInt32 {
		return cfg, nil, nil, fmt.Errorf("rtree: %d points exceed the packed arena's int32 slots", n)
	}
	if ids != nil && len(ids) != n {
		return cfg, nil, nil, fmt.Errorf("rtree: %d ids for %d points", len(ids), n)
	}
	pc := make([][]float64, dim)
	for a := range pc {
		pc[a] = cols[a*n : (a+1)*n : (a+1)*n]
	}
	for i := 0; i < n; i++ {
		for a, col := range pc {
			if v := col[i]; !inRange(v) {
				return cfg, nil, nil, &NonFiniteError{Index: i, Axis: a, Value: v}
			}
		}
	}
	if ids == nil {
		ids = make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
		}
	}
	return cfg, pc, ids, nil
}

// sortBuffers are the orderings' working memory, sized to the longest
// input sorted through them: a key column indexed by position, the
// order of positions a radix sort produces, and the sort's scratch. The
// key column also carries the gather that applies an order in place.
type sortBuffers struct {
	keys  []uint64
	order []int32
	radix radix.Scratch
}

// start returns the key column and the identity order over n positions.
func (b *sortBuffers) start(n int) ([]uint64, []int32) {
	if len(b.keys) < n {
		b.keys, b.order = make([]uint64, n), make([]int32, n)
	}
	keys, order := b.keys[:n], b.order[:n]
	for i := range order {
		order[i] = int32(i)
	}
	return keys, order
}

// strOrder reorders the points of pc and ids in place into STR leaf
// order. Points are sorted on the first axis and cut into slabs of
// ⌈√(leaves)⌉·M points, each slab sorted on the second axis (points
// beyond 2-D are tiled on their first two axes, which preserves
// correctness — tiling is purely a quality heuristic). Both sorts are
// stable radix sorts of the coordinates' radix.Float64Key images, so
// ties, -0 against +0 included, keep their input order: the order a
// stable sort under < gives.
func (b *sortBuffers) strOrder(cfg Config, pc [][]float64, ids []int64) {
	n := len(ids)
	keys, order := b.start(n)
	for i, v := range pc[0] {
		keys[i] = radix.Float64Key(v)
	}
	radix.Sort(keys, order, &b.radix)
	if cfg.Dim >= 2 {
		M := cfg.MaxEntries
		nLeaves := (n + M - 1) / M
		perSlab := int(math.Ceil(math.Sqrt(float64(nLeaves)))) * M
		for i, v := range pc[1] {
			keys[i] = radix.Float64Key(v)
		}
		for lo := 0; lo < n; lo += perSlab {
			radix.Sort(keys, order[lo:min(lo+perSlab, n)], &b.radix)
		}
	}
	b.apply(order, pc, ids)
}

// hilbertOrder reorders the points of pc and ids in place into the
// Hilbert order of the curve fitted to their bounding box on the first
// two axes (a 1-D point set degenerates the second axis to the first
// axis' minimum). Equal curve values keep their input order.
func (b *sortBuffers) hilbertOrder(pc [][]float64, ids []int64) {
	n := len(ids)
	if n == 0 {
		return
	}
	xs, ys := pc[0], pc[0]
	if len(pc) >= 2 {
		ys = pc[1]
	}
	// The box on the first two axes, folded as geom.BoundingRect folds it.
	loX, hiX := span(xs)
	loY, hiY := span(ys)
	if len(pc) < 2 {
		hiY = loY // a zero-height box: every 1-D point maps to grid row 0
	}
	m := hilbert.NewMapper(hilbert.DefaultOrder, loX, loY, hiX, hiY)
	keys, order := b.start(n)
	for i, x := range xs {
		keys[i] = m.Value(x, ys[i])
	}
	radix.Sort(keys, order, &b.radix)
	b.apply(order, pc, ids)
}

// span returns the least and greatest of the non-empty, NaN-free col,
// keeping the first of equal values (so -0 or +0, whichever comes
// first).
func span(col []float64) (lo, hi float64) {
	lo, hi = col[0], col[0]
	for _, v := range col[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// apply reorders every column of pc, and ids, so the point at rank r is
// the one order[r] names, gathering each column through the key column.
func (b *sortBuffers) apply(order []int32, pc [][]float64, ids []int64) {
	tmp := b.keys[:len(order)]
	for _, col := range pc {
		for r, i := range order {
			tmp[r] = math.Float64bits(col[i])
		}
		for r, v := range tmp {
			col[r] = math.Float64frombits(v)
		}
	}
	for r, i := range order {
		tmp[r] = uint64(ids[i])
	}
	for r, v := range tmp {
		ids[r] = int64(v)
	}
}

// packOrdered adopts the leaf columns pc and ids, already in leaf order,
// and packs the levels above them bottom-up, straight into a Packed
// arena. Each level groups consecutive nodes of the level below, M to a
// node, until one root remains; the final node of each level is kept at
// or above MinEntries by borrowing from its predecessor, so every node
// but the root meets the fill invariants CheckInvariants checks. Pages
// are numbered level by level from the leaves up, left to right, after
// one unused page (FirstPage itself, which only an empty tree's root
// takes): committed snapshots and their checksums fix this numbering.
//
// Node ids and routing slots are in depth-first preorder, leaf slots in
// leaf order, and each routing rectangle is the math.Min/math.Max fold
// of its child's entries in entry order — the values a Rect.Union chain
// over them yields. The reference loader of the package tests builds the
// same tree node by node and checks the arena against it.
func packOrdered(cfg Config, pc [][]float64, ids []int64) *Packed {
	dim, n := cfg.Dim, len(ids)
	M, m := cfg.MaxEntries, cfg.MinEntries

	// firsts[l][j] is the first child of node j on level l (a leaf slot
	// on level 0); each level closes with its child count.
	var firsts [][]int32
	nodes := 0
	for items := n; ; {
		b := make([]int32, 0, (items+M-1)/M+1)
		for lo := 0; lo < items || len(b) == 0; {
			b = append(b, int32(lo))
			hi := lo + M
			if items <= M {
				hi = items // the root takes everything left
			} else if rem := items - hi; rem > 0 && rem < m {
				// Shrink this node so the final one reaches MinEntries.
				hi = items - m
			}
			lo = min(hi, items)
		}
		firsts = append(firsts, append(b, int32(items)))
		nodes += len(b)
		if len(b) == 1 {
			break
		}
		items = len(b)
	}
	pageBase := make([]pagestore.PageID, len(firsts))
	next := cfg.FirstPage
	if n > 0 {
		next++ // FirstPage stays an empty tree's root page
	}
	for l, b := range firsts {
		pageBase[l] = next
		next += pagestore.PageID(len(b) - 1)
	}

	rslots := nodes - 1
	rects := make([]float64, 2*dim*rslots)
	p := &Packed{
		dim: dim, size: n, height: len(firsts),
		acct:  cfg.Accountant,
		level: make([]int32, nodes),
		page:  make([]pagestore.PageID, nodes),
		start: make([]int32, nodes),
		end:   make([]int32, nodes),
		child: make([]int32, rslots),
		rlo:   make([][]float64, dim),
		rhi:   make([][]float64, dim),
		pc:    pc,
		ids:   ids,
	}
	for a := 0; a < dim; a++ {
		p.rlo[a] = rects[2*a*rslots : (2*a+1)*rslots : (2*a+1)*rslots]
		p.rhi[a] = rects[(2*a+1)*rslots : (2*a+2)*rslots : (2*a+2)*rslots]
	}

	// Depth-first preorder fill: a node's routing slots are claimed
	// before its children are visited, and each child's id and MBR are
	// written into its slot as the recursion returns.
	var nextID, nextR int32
	var fill func(l int, j int32) int32
	fill = func(l int, j int32) int32 {
		id := nextID
		nextID++
		p.level[id] = int32(l)
		p.page[id] = pageBase[l] + pagestore.PageID(j)
		lo, hi := firsts[l][j], firsts[l][j+1]
		if l == 0 {
			p.start[id], p.end[id] = lo, hi
			return id
		}
		s := nextR
		nextR += hi - lo
		p.start[id], p.end[id] = s, nextR
		for c := lo; c < hi; c++ {
			slot := s + c - lo
			p.child[slot] = fill(l-1, c)
			for a := 0; a < dim; a++ {
				p.rlo[a][slot], p.rhi[a][slot] = p.nodeSpan(p.child[slot], a)
			}
		}
		return id
	}
	p.root = fill(len(firsts)-1, 0)
	p.setShell(cfg, next)
	return p
}
