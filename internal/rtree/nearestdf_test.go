package rtree

import (
	"math"
	"slices"
	"sort"

	"gnn/internal/geom"
	"gnn/internal/pq"
)

// nearestDF returns the k nearest neighbors of q using the depth-first
// branch-and-bound algorithm of [RKV95]: entries of each node are visited
// in ascending mindist order and subtrees farther than the current k-th
// best are pruned. Results are sorted by ascending distance. It is the
// reference the best-first NearestBF is checked and measured against.
//
// The traversal works entirely in squared distances (comparisons are
// order-preserving, so pruning is unaffected): the per-node candidate
// distances come from one fused pass over the SoA arrays, candidates are
// int32 refs, and the candidate buffers and result set come from a pooled
// scratch. The caller owns the returned points.
func (rd Reader) nearestDF(q geom.Point, k int) []Neighbor {
	if rd.p.size == 0 || k < 1 {
		return nil
	}
	sc := nnScratchPool.Get()
	sc.best.reset(k, rd.p.dim)
	rd.nearestDFNode(rd.PackedRoot(), q, sc, 0)
	out := sc.best.neighbors()
	sc.release()
	return out
}

func (rd Reader) nearestDFNode(n int32, q geom.Point, sc *nnScratch, depth int) {
	p := rd.p
	s, e := p.start[n], p.end[n]
	cnt := int(e - s)
	sc.dbuf = growFloat64(sc.dbuf, cnt)
	buf := sc.cands.Level(depth)
	cands := *buf
	if p.level[n] == 0 {
		geom.DistSqPointsPoint(p.pc, int(s), int(e), q, sc.dbuf)
		for i := 0; i < cnt; i++ {
			cands = append(cands, PCand{Ref: LeafRef(s + int32(i)), D: sc.dbuf[i]})
		}
	} else {
		geom.MinDistSqRectsPoint(p.rlo, p.rhi, int(s), int(e), q, sc.dbuf)
		for i := 0; i < cnt; i++ {
			cands = append(cands, PCand{Ref: NodeRef(s + int32(i)), D: sc.dbuf[i]})
		}
	}
	SortPCands(cands)
	*buf = cands
	for i := range cands {
		c := cands[i]
		if bd, ok := sc.best.Kth(); ok && c.D >= bd {
			return // every remaining candidate is at least this far
		}
		if slot, leaf := RefSlot(c.Ref); leaf {
			sc.pt = p.PointInto(slot, sc.pt)
			sc.best.push(sc.pt, p.ids[slot], c.D)
		} else {
			rd.nearestDFNode(rd.PackedChild(slot), q, sc, depth+1)
		}
	}
}

// nnScratch is the per-query scratch of nearestDF: the per-depth
// candidate buffers and the bounded result set, plus the fused-kernel
// distance buffer and the point-gather scratch.
type nnScratch struct {
	cands PCandStack
	dbuf  []float64
	pt    geom.Point
	best  nnBest
}

var nnScratchPool = pq.NewPool(func() *nnScratch { return &nnScratch{} })

// release resets the scratch and returns it to the pool.
func (s *nnScratch) release() {
	s.cands.Reset()
	s.best.reset(1, 0)
	nnScratchPool.Put(s)
}

// nnBest is nearestDF's bounded result set: the k nearest candidates
// held so far, in a plain list kept sorted by squared distance. An
// accepted candidate's coordinates are copied into a row the set owns
// (the row of the candidate it evicts, once full), so the set never
// aliases the arena or the caller's gather scratch, and the rows grow
// with the candidates held, never with k.
type nnBest struct {
	held []nnRow // ascending d; at most k
	k    int
	rows []float64 // row r holds coordinates rows[r*dim : (r+1)*dim]
	dim  int
}

// nnRow is one held candidate: its squared distance, coordinate row and
// id.
type nnRow struct {
	d   float64
	row int32
	id  int64
}

// reset prepares the set for a query of k results in dim dimensions,
// dropping a list or row buffer above pq.RetainCap.
func (b *nnBest) reset(k, dim int) {
	b.held = pq.Trim(b.held)
	b.rows = pq.Trim(b.rows)
	b.k, b.dim = k, dim
}

// Kth returns the current pruning bound: the k-th smallest squared
// distance held, with ok false until k candidates are held.
func (b *nnBest) Kth() (float64, bool) {
	if len(b.held) < b.k {
		return 0, false
	}
	return b.held[b.k-1].d, true
}

// push offers p (with its id) at squared distance d, copying it into an
// owned row when it ranks among the k nearest. p itself is not retained.
// A candidate tied with the k-th is not taken.
func (b *nnBest) push(p geom.Point, id int64, d float64) {
	var r int32
	if kth, full := b.Kth(); full {
		if d >= kth {
			return
		}
		r = b.held[b.k-1].row // reuse the evicted candidate's row
		b.held = b.held[:b.k-1]
		copy(b.rows[int(r)*b.dim:(int(r)+1)*b.dim], p)
	} else {
		// Rows are only appended while the list fills, so the next row
		// index is the number held.
		r = int32(len(b.held))
		b.rows = append(b.rows, p...)
	}
	i := sort.Search(len(b.held), func(i int) bool { return b.held[i].d > d })
	b.held = slices.Insert(b.held, i, nnRow{d: d, row: r, id: id})
}

// neighbors returns the held candidates in ascending order, converting
// the squared-distance keys into the Euclidean distances the API
// reports, with their points in one slab the caller owns. Dist(p,q) is
// defined as Sqrt(DistSq(p,q)), so the converted values are bit-identical
// to distances computed directly.
func (b *nnBest) neighbors() []Neighbor {
	out := make([]Neighbor, len(b.held))
	slab := make([]float64, len(b.held)*b.dim)
	for i, h := range b.held {
		pt := slab[i*b.dim : (i+1)*b.dim : (i+1)*b.dim]
		copy(pt, b.rows[int(h.row)*b.dim:])
		out[i] = Neighbor{Point: pt, ID: h.id, Dist: math.Sqrt(h.d)}
	}
	return out
}
