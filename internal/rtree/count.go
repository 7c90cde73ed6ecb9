package rtree

import "gnn/internal/geom"

// CountExact returns how many indexed entries match the point and id
// exactly. Like All it charges no node accesses — it is bookkeeping for
// the delete-tombstone overlay (which must know a base point's
// multiplicity), not a simulated disk traversal, so per-query cost
// accounting is unaffected. The walk prunes by MBR containment.
func (t *Tree) CountExact(p geom.Point, id int64) int {
	if t.size == 0 || len(p) != t.cfg.Dim {
		return 0
	}
	if t.root == nil {
		return t.shellOf.CountExact(p, id)
	}
	return t.countExactNode(t.root, p, id)
}

func (t *Tree) countExactNode(n *node, p geom.Point, id int64) int {
	c := 0
	for _, e := range n.entries {
		if e.child == nil {
			if e.ID == id && e.Point.Equal(p) {
				c++
			}
		} else if e.Rect.ContainsPoint(p) {
			c += t.countExactNode(e.child, p, id)
		}
	}
	return c
}

// CountExact is the packed-arena analogue of Tree.CountExact: an
// uncharged MBR-pruned walk of the SoA arena. It works on heap-packed
// and mapped (borrowed) arenas alike; borrowed arenas must have been
// Prepared (verified) first. Candidate leaf points are gathered from the
// coordinate columns into one scratch point for the comparison.
func (p *Packed) CountExact(pt geom.Point, id int64) int {
	if p == nil || p.size == 0 || len(pt) != p.dim {
		return 0
	}
	return p.countExactNode(p.root, pt, id, make(geom.Point, p.dim))
}

func (p *Packed) countExactNode(n int32, pt geom.Point, id int64, scratch geom.Point) int {
	s, e := p.start[n], p.end[n]
	c := 0
	if p.level[n] == 0 {
		for i := s; i < e; i++ {
			if p.ids[i] == id && p.PointInto(i, scratch).Equal(pt) {
				c++
			}
		}
		return c
	}
	for i := s; i < e; i++ {
		inside := true
		for ax := 0; ax < p.dim; ax++ {
			if pt[ax] < p.rlo[ax][i] || pt[ax] > p.rhi[ax][i] {
				inside = false
				break
			}
		}
		if inside {
			c += p.countExactNode(p.child[i], pt, id, scratch)
		}
	}
	return c
}
