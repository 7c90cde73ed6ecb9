package rtree

import (
	"cmp"
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
	l, err := adopt(cfg, cols, ids)
	if err != nil {
		return nil, err
	}
	if len(l.words) > 0 {
		x := radix.NewScale(l.loX, l.hiX)
		for i, v := range l.xs {
			l.words[i] = radix.Word(x.Image(v), i)
		}
		l.str(l.words, l.spare, nil)
		l.apply(l.spare)
	}
	return packOrdered(l.cfg, l.pc, l.ids), nil
}

// PackSTRPartitioned Hilbert-partitions the points into parts contiguous
// chunks of near-equal size (the classic shard split: order the points
// by Hilbert value, ties by input order, and cut the curve into parts
// runs, so every chunk is spatially coherent) and STR-packs one
// independent arena per chunk, as PackSTR does. STR breaks a chunk's
// ties on the first axis by curve value, then by input order: the order
// the chunk's points have on the curve. It takes cols and ids over as
// PackSTR does, reordering them so each chunk's leaves are one
// contiguous run of every axis, which its arena adopts. All arenas share
// cfg.Accountant (one allocated here when nil) and their page IDs are
// offset to be disjoint, so they can also share an LRU buffer and the
// usual node-access accounting stays exactly additive across the
// partition. Points beyond 2-D are ordered on their first two axes; 1-D
// points on their single axis.
//
// The curve is cut, not sorted: radix.Cut moves each chunk's points to
// its run, where each chunk is STR-ordered. One gather then applies
// every chunk's order.
func PackSTRPartitioned(cfg Config, cols []float64, ids []int64, parts int) ([]*Packed, error) {
	if parts < 1 {
		return nil, fmt.Errorf("rtree: %d partitions; need at least 1", parts)
	}
	l, err := adopt(cfg, cols, ids) // resolves the shared Accountant once
	if err != nil {
		return nil, err
	}
	cfg, pc, ids, n := l.cfg, l.pc, l.ids, len(l.ids)
	ends := make([]int, parts)
	for s := range ends {
		ends[s] = n * (s + 1) / parts
	}
	if n > 0 {
		curve, order := l.curveWords()
		radix.Cut(l.words, l.spare, ends, order)
		// Every chunk's words take their first-axis images.
		x := radix.NewScale(l.loX, l.hiX)
		for r, w := range l.spare {
			p := radix.Pos(w)
			l.spare[r] = radix.Word(x.Image(l.xs[p]), p)
		}
		lo := 0
		for _, hi := range ends {
			l.str(l.spare[lo:hi], l.words[lo:hi], curve)
			lo = hi
		}
		l.apply(l.words)
	}
	out := make([]*Packed, 0, parts)
	lo := 0
	for _, hi := range ends {
		chunk := make([][]float64, len(pc))
		for a, col := range pc {
			chunk[a] = col[lo:hi:hi]
		}
		p := packOrdered(cfg, chunk, ids[lo:hi:hi])
		cfg.FirstPage += pagestore.PageID(p.Tree().Pages())
		out = append(out, p)
		lo = hi
	}
	return out, nil
}

// A load orders the points of one bulk load for packing. Its two word
// columns (a key image and a position each; see radix.Word) are its
// working memory: a sort or a cut reads one and writes the other, and
// the gather that applies the final order goes through the free one.
// Every position is the point's index in the input, so an order is
// applied once, whatever ordered it.
type load struct {
	cfg          Config
	pc           [][]float64
	ids          []int64
	xs, ys       []float64 // the first two axes; ys is nil for 1-D points
	loX, hiX     float64   // the points' extent on xs
	loY, hiY     float64   // ... and on ys, when not nil
	words, spare []uint64
}

// adopt resolves cfg's defaults, rejects a coordinate buffer that does
// not divide into cfg.Dim axes, an id slice of the wrong length and any
// coordinate CheckFinite rejects (the first in point order), and returns
// the load of the buffer's points: its axis columns, the ids (numbered
// from 0 when ids is nil), their extents on the first two axes, and its
// word columns.
func adopt(cfg Config, cols []float64, ids []int64) (*load, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	dim := cfg.Dim
	if len(cols)%dim != 0 {
		return nil, fmt.Errorf("rtree: %d coordinates do not divide into %d-dimensional points", len(cols), dim)
	}
	n := len(cols) / dim
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("rtree: %d points exceed the packed arena's int32 slots", n)
	}
	if ids != nil && len(ids) != n {
		return nil, fmt.Errorf("rtree: %d ids for %d points", len(ids), n)
	}
	pc := make([][]float64, dim)
	for a := range pc {
		pc[a] = cols[a*n : (a+1)*n : (a+1)*n]
	}
	if ids == nil {
		ids = make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
		}
	}
	l := &load{cfg: cfg, pc: pc, ids: ids, xs: pc[0]}
	if dim >= 2 {
		l.ys = pc[1]
	}
	if n == 0 {
		return l, nil
	}
	// The extents come with the range check of every column.
	for a, col := range pc {
		lo, hi, ok := extent(col)
		if !ok {
			return nil, firstOutOfRange(pc)
		}
		switch a {
		case 0:
			l.loX, l.hiX = lo, hi
		case 1:
			l.loY, l.hiY = lo, hi
		}
	}
	l.words, l.spare = make([]uint64, n), make([]uint64, n)
	return l, nil
}

// extent returns the least and greatest of the non-empty col, keeping
// the first of equal values (so -0 or +0, whichever comes first; the
// sign of a zero extent changes no curve value and no image), and
// whether every value is a coordinate an index accepts (inRange).
func extent(col []float64) (lo, hi float64, ok bool) {
	lo, hi = col[0], col[0]
	for _, v := range col {
		if !inRange(v) {
			return lo, hi, false
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, true
}

// firstOutOfRange returns the *NonFiniteError of the first point of pc,
// in input order, with a coordinate no index accepts, or nil.
func firstOutOfRange(pc [][]float64) error {
	for i := range pc[0] {
		for a, col := range pc {
			if v := col[i]; !inRange(v) {
				return &NonFiniteError{Index: i, Axis: a, Value: v}
			}
		}
	}
	return nil
}

// curveWords fits the Hilbert curve to the points' box on their first
// two axes (for 1-D points a zero-height box, which maps every point to
// grid row 0), writes every point's curve word (hilbert.Mapper.Words)
// into the first word column, and returns the curve and the order of
// its words.
func (l *load) curveWords() (*hilbert.Mapper, radix.Order) {
	ys, loY, hiY := l.ys, l.loY, l.hiY
	if ys == nil {
		ys, loY, hiY = l.xs, l.loX, l.loX
	}
	curve := hilbert.NewMapper(hilbert.DefaultOrder, l.loX, loY, l.hiX, hiY)
	curve.Words(l.xs, ys, l.words)
	return curve, curve.Order(l.xs, ys)
}

// str writes the words of in to out, which must be as long, in STR leaf
// order, leaving in free. Each word of in names a point and carries its
// first-axis image (a radix.Scale over the load's extent). The points
// are sorted on the first axis, cut into slabs of ⌈√(leaves)⌉·M points,
// and each slab sorted on the second axis (points beyond 2-D are tiled
// on their first two axes, which preserves correctness — tiling is
// purely a quality heuristic). A tie on the first axis, -0 against +0
// included, is broken by curve value when curve is not nil (a chunk of
// a Hilbert split), then by input order; a tie on the second axis by
// the first axis, then by input order: the order stable sorts under <
// give, the first from the chunk's curve order.
//
// Only the slabs' order reaches the leaves, so the first axis is not
// sorted: radix.Cut selects the slab boundaries and moves each slab's
// points there, and radix.Sort sorts each slab on the second axis. 1-D
// points are sorted once.
func (l *load) str(in, out []uint64, curve *hilbert.Mapper) {
	n := len(in)
	xs, ys := l.xs, l.ys
	byX := func(p, q int) int { return cmp.Compare(xs[p], xs[q]) }
	if ys == nil {
		// The curve of 1-D points follows the axis: equal coordinates
		// have equal curve values.
		copy(out, in)
		radix.Sort(out, in, radix.ByKey(byX, nil))
		return
	}
	M := l.cfg.MaxEntries
	nLeaves := (n + M - 1) / M
	perSlab := int(math.Ceil(math.Sqrt(float64(nLeaves)))) * M
	src := in
	if n > perSlab {
		ends := make([]int, 0, (n+perSlab-1)/perSlab)
		for e := perSlab; e < n; e += perSlab {
			ends = append(ends, e)
		}
		ends = append(ends, n)
		var byCurve func(p int) uint32
		if curve != nil {
			byCurve = func(p int) uint32 { return uint32(curve.Value(xs[p], ys[p])) }
		}
		radix.Cut(in, out, ends, radix.ByKey(byX, byCurve))
		src = out
	}
	// Points equal on both axes have equal curve values, so the first
	// axis and input order settle a tie on the second.
	y := radix.NewScale(l.loY, l.hiY)
	for r, w := range src {
		p := radix.Pos(w)
		out[r] = radix.Word(y.Image(ys[p]), p)
	}
	byY := radix.ByKey(func(p, q int) int {
		if c := cmp.Compare(ys[p], ys[q]); c != 0 {
			return c
		}
		return byX(p, q)
	}, nil)
	for lo := 0; lo < n; lo += perSlab {
		hi := min(lo+perSlab, n)
		radix.Sort(out[lo:hi], in[lo:hi], byY)
	}
}

// apply reorders every column of the load's points, and its ids, into
// order, one of its word columns: the point at rank r is the one at
// position radix.Pos(order[r]). It gathers each axis but the last
// through the other word column; the last pass gathers the last axis
// there and the ids into order itself, each word read just before it is
// overwritten, so it reads the order once for both. order is consumed.
func (l *load) apply(order []uint64) {
	tmp := l.spare
	if len(order) > 0 && &order[0] == &l.spare[0] {
		tmp = l.words
	}
	tmp = tmp[:len(order)]
	pc, ids := l.pc, l.ids
	last := len(pc) - 1
	for _, col := range pc[:last] {
		for r, w := range order {
			tmp[r] = math.Float64bits(col[radix.Pos(w)])
		}
		for r, v := range tmp {
			col[r] = math.Float64frombits(v)
		}
	}
	col := pc[last]
	for r, w := range order {
		p := radix.Pos(w)
		tmp[r], order[r] = math.Float64bits(col[p]), uint64(ids[p])
	}
	col, ids = col[:len(order)], ids[:len(order)]
	for r, v := range order {
		col[r], ids[r] = math.Float64frombits(tmp[r]), int64(v)
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
