package rtree

import (
	"fmt"
	"math"

	"gnn/internal/geom"
	"gnn/internal/hilbert"
	"gnn/internal/pagestore"
	"gnn/internal/radix"
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

// Flatten copies pts into one point-major coordinate slab — the input of
// PackSTR and PackSTRPartitioned, with no per-point slice headers —
// rejecting a point whose dimension is not cfg.Dim (after defaults).
// The packers check everything else.
func Flatten[P ~[]float64](cfg Config, pts []P) ([]float64, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	coords := make([]float64, 0, len(pts)*cfg.Dim)
	for i, p := range pts {
		if len(p) != cfg.Dim {
			return nil, fmt.Errorf("rtree: point %d has dimension %d, tree dimension %d", i, len(p), cfg.Dim)
		}
		coords = append(coords, p...)
	}
	return coords, nil
}

// PackSTR bulk-loads the points of a point-major coordinate slab (point
// i is coords[i*Dim : (i+1)*Dim]) with the Sort-Tile-Recursive
// algorithm, writing the packed arena directly: points are tiled into
// vertical slabs of √(n/M) tiles, each slab sorted on the second axis,
// and leaves packed to capacity; each upper level groups consecutive
// nodes of the level below. ids[i] identifies point i; pass nil to use
// the point index. The arena is the one Tree.Pack produces from the
// tree these levels describe, bit for bit (see packOrdered), and its
// Tree() is the arena's immutable shell.
func PackSTR(cfg Config, coords []float64, ids []int64) (*Packed, error) {
	cfg, err := checkFlat(cfg, coords, ids)
	if err != nil {
		return nil, err
	}
	return packOrdered(cfg, coords, ids, strOrder(cfg, coords, nil)), nil
}

// packHilbert is PackSTR with the leaves in Hilbert order instead — the
// classic Hilbert-packed R-tree. Only the first two dimensions contribute
// to the ordering.
func packHilbert(cfg Config, coords []float64, ids []int64) (*Packed, error) {
	cfg, err := checkFlat(cfg, coords, ids)
	if err != nil {
		return nil, err
	}
	return packOrdered(cfg, coords, ids, hilbertPerm(cfg.Dim, coords)), nil
}

// PackSTRPartitioned Hilbert-partitions the points into parts contiguous
// chunks of near-equal size (the classic shard split: sort by Hilbert
// value, cut the curve into parts runs, so every chunk is spatially
// coherent) and STR-packs one independent arena per chunk, as PackSTR
// does. All arenas share cfg.Accountant (one allocated here when nil)
// and their page IDs are offset to be disjoint, so they can also share
// an LRU buffer and the usual node-access accounting stays exactly
// additive across the partition. Points beyond 2-D are ordered on their
// first two axes, like packHilbert; 1-D points on their single axis.
func PackSTRPartitioned(cfg Config, coords []float64, ids []int64, parts int) ([]*Packed, error) {
	if parts < 1 {
		return nil, fmt.Errorf("rtree: %d partitions; need at least 1", parts)
	}
	cfg, err := checkFlat(cfg, coords, ids) // resolves the shared Accountant once
	if err != nil {
		return nil, err
	}
	perm := hilbertPerm(cfg.Dim, coords)
	n := len(perm)
	out := make([]*Packed, 0, parts)
	for s := 0; s < parts; s++ {
		chunk := perm[n*s/parts : n*(s+1)/parts]
		p := packOrdered(cfg, coords, ids, strOrder(cfg, coords, chunk))
		cfg.FirstPage += pagestore.PageID(p.Tree().Pages())
		out = append(out, p)
	}
	return out, nil
}

// checkFlat resolves cfg's defaults and rejects a coordinate slab that
// does not divide into cfg.Dim-dimensional points, an id slice of the
// wrong length, and any non-finite coordinate.
func checkFlat(cfg Config, coords []float64, ids []int64) (Config, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return cfg, err
	}
	dim := cfg.Dim
	if len(coords)%dim != 0 {
		return cfg, fmt.Errorf("rtree: %d coordinates do not divide into %d-dimensional points", len(coords), dim)
	}
	n := len(coords) / dim
	if n > math.MaxInt32 {
		return cfg, fmt.Errorf("rtree: %d points exceed the packed arena's int32 slots", n)
	}
	if ids != nil && len(ids) != n {
		return cfg, fmt.Errorf("rtree: %d ids for %d points", len(ids), n)
	}
	for i := 0; i < n; i++ {
		if err := CheckFinite(i, coords[i*dim:(i+1)*dim]); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// strOrder returns the STR leaf order of the points sel picks out of
// coords (every point, in slab order, when sel is nil): order[rank] is
// the slab position of the point at that rank. Positions are int32,
// like every slot index of the packed arena. Points are sorted on the
// first axis and cut into slabs of ⌈√(leaves)⌉·M points, each slab sorted
// on the second axis (points beyond 2-D are tiled on their first two
// axes, which preserves correctness — tiling is purely a quality
// heuristic). Both sorts are stable radix sorts of the coordinates'
// radix.Float64Key images, so ties, -0 against +0 included, keep their
// order in sel: the order a stable sort under < gives.
func strOrder(cfg Config, coords []float64, sel []int32) []int32 {
	dim := cfg.Dim
	n := len(coords) / dim
	if sel != nil {
		n = len(sel)
	}
	order := make([]int32, n)
	keys := make([]uint64, n)
	for r := range order {
		i := int32(r)
		if sel != nil {
			i = sel[r]
		}
		order[r], keys[r] = i, radix.Float64Key(coords[int(i)*dim])
	}
	var scratch radix.Scratch
	radix.Sort(keys, order, &scratch)
	if dim >= 2 {
		M := cfg.MaxEntries
		nLeaves := (n + M - 1) / M
		perSlab := int(math.Ceil(math.Sqrt(float64(nLeaves)))) * M
		for r, i := range order {
			keys[r] = radix.Float64Key(coords[int(i)*dim+1])
		}
		for lo := 0; lo < n; lo += perSlab {
			hi := min(lo+perSlab, n)
			radix.Sort(keys[lo:hi], order[lo:hi], &scratch)
		}
	}
	return order
}

// hilbertPerm returns the Hilbert-order permutation of the points in
// coords over their bounding box (nil for no points).
func hilbertPerm(dim int, coords []float64) []int32 {
	n := len(coords) / dim
	if n == 0 {
		return nil
	}
	at := func(i int) (x, y float64) {
		if dim >= 2 {
			y = coords[i*dim+1]
		}
		return coords[i*dim], y
	}
	// The box on the first two axes, folded as geom.BoundingRect folds it.
	loX, loY := at(0)
	hiX, hiY := loX, loY
	for i := 1; i < n; i++ {
		x, y := at(i)
		if x < loX {
			loX = x
		}
		if x > hiX {
			hiX = x
		}
		if y < loY {
			loY = y
		}
		if y > hiY {
			hiY = y
		}
	}
	if dim < 2 {
		loY, hiY = loX, loX
	}
	return hilbert.Perm(n, hilbert.NewMapper(hilbert.DefaultOrder, loX, loY, hiX, hiY), at)
}

// idAt returns the identifier of point i: ids[i], or i when ids is nil.
func idAt(ids []int64, i int) int64 {
	if ids == nil {
		return int64(i)
	}
	return ids[i]
}

// packOrdered lays the points out as leaf slots in the given order and
// packs them bottom-up, straight into a Packed arena. Each level groups
// consecutive nodes of the level below, M to a node, until one root
// remains; the final node of each level is kept at or above MinEntries
// by borrowing from its predecessor, so packed trees satisfy the same
// fill invariants as incrementally built ones. Pages are numbered level
// by level from the leaves up, left to right, after the one page the
// empty root of New takes.
//
// The arena is exactly what Tree.Pack writes for the tree those levels
// describe: node ids and routing slots in depth-first preorder, leaf
// slots in leaf order (which is the given order), and each routing
// rectangle the math.Min/math.Max fold of its child's entries in entry
// order — the values a Rect.Union chain over them yields.
func packOrdered(cfg Config, coords []float64, ids []int64, order []int32) *Packed {
	dim, n := cfg.Dim, len(order)
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
		next++ // the discarded root of an empty tree
	}
	for l, b := range firsts {
		pageBase[l] = next
		next += pagestore.PageID(len(b) - 1)
	}

	rslots := nodes - 1
	rects := make([]float64, 2*dim*rslots)
	cols := make([]float64, dim*n)
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
		pc:    make([][]float64, dim),
		ids:   make([]int64, n),
	}
	for a := 0; a < dim; a++ {
		p.rlo[a] = rects[2*a*rslots : (2*a+1)*rslots : (2*a+1)*rslots]
		p.rhi[a] = rects[(2*a+1)*rslots : (2*a+2)*rslots : (2*a+2)*rslots]
		p.pc[a] = cols[a*n : (a+1)*n : (a+1)*n]
	}
	for r, i := range order {
		for a := 0; a < dim; a++ {
			p.pc[a][r] = coords[int(i)*dim+a]
		}
		p.ids[r] = idAt(ids, int(i))
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
