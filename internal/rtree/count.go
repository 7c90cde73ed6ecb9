package rtree

import "gnn/internal/geom"

// CountExact returns how many indexed entries match the point and id
// exactly: an uncharged MBR-pruned walk of the arena. Like All it charges
// no node accesses — it is bookkeeping for the delete-tombstone overlay
// (which must know a base point's multiplicity), not a simulated disk
// traversal, so per-query cost accounting is unaffected. A borrowed
// arena must have been Prepared (verified) first. Candidate leaf points
// are gathered from the coordinate columns into one scratch point for
// the comparison.
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
