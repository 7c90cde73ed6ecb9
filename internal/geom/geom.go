// Package geom provides the d-dimensional geometric primitives used by the
// GNN library: points, axis-aligned rectangles (MBRs) and the family of
// distance metrics (dist, mindist, maxdist) that drive every pruning
// heuristic in the paper.
//
// All distance functions are allocation-free so they can sit on the hot path
// of R-tree traversals. Distances are Euclidean (L2), matching the paper;
// squared variants are provided where only comparisons are needed.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a point in d-dimensional space. The paper evaluates d=2 but all
// algorithms are dimension-agnostic, so Point is a slice.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the point as "(x, y, ...)".
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Dist returns the Euclidean distance |pq|.
func Dist(p, q Point) float64 {
	return math.Sqrt(DistSq(p, q))
}

// DistSq returns the squared Euclidean distance between p and q. It is
// cheaper than Dist and sufficient when only comparisons are needed.
func DistSq(p, q Point) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// SumDist returns Σ_i |p qi|, the aggregate (SUM) distance between p and the
// query group qs. This is the dist(p,Q) of the paper.
func SumDist(p Point, qs []Point) float64 {
	var s float64
	for _, q := range qs {
		s += Dist(p, q)
	}
	return s
}

// Rect is an axis-aligned rectangle (minimum bounding rectangle). Lo holds
// the minimum coordinate on every axis, Hi the maximum. A Rect with
// Lo[i] == Hi[i] on every axis degenerates to a point and remains valid.
type Rect struct {
	Lo, Hi Point
}

// NewRect builds a rectangle from two corner points, normalising the
// coordinate order so that Lo ≤ Hi holds on every axis.
func NewRect(a, b Point) Rect {
	lo := make(Point, len(a))
	hi := make(Point, len(a))
	for i := range a {
		lo[i] = math.Min(a[i], b[i])
		hi[i] = math.Max(a[i], b[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// BoundingRect returns the MBR of a non-empty point set.
// It panics when pts is empty: an MBR of nothing is undefined.
// It allocates exactly the two corner slices, growing them in place rather
// than cloning per point.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingRect of empty point set")
	}
	return BoundingRectInto(Rect{}, pts)
}

// BoundingRectInto computes the MBR of a non-empty point set into dst's
// corner slices, reallocating them only when their capacity is too small.
// It is the allocation-free variant of BoundingRect for pooled per-query
// scratch. It panics when pts is empty.
func BoundingRectInto(dst Rect, pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingRect of empty point set")
	}
	d := len(pts[0])
	if cap(dst.Lo) < d {
		dst.Lo = make(Point, d)
	}
	if cap(dst.Hi) < d {
		dst.Hi = make(Point, d)
	}
	dst.Lo, dst.Hi = dst.Lo[:d], dst.Hi[:d]
	copy(dst.Lo, pts[0])
	copy(dst.Hi, pts[0])
	for _, p := range pts[1:] {
		for i, v := range p {
			if v < dst.Lo[i] {
				dst.Lo[i] = v
			}
			if v > dst.Hi[i] {
				dst.Hi[i] = v
			}
		}
	}
	return dst
}

// Dim returns the dimensionality of r.
func (r Rect) Dim() int { return len(r.Lo) }

// String renders the rectangle as "[lo - hi]".
func (r Rect) String() string {
	return fmt.Sprintf("[%v - %v]", r.Lo, r.Hi)
}

// Valid reports whether Lo ≤ Hi holds on every axis and both corners share
// the rectangle's dimensionality.
func (r Rect) Valid() bool {
	if len(r.Lo) != len(r.Hi) || len(r.Lo) == 0 {
		return false
	}
	for i := range r.Lo {
		if r.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Center returns the rectangle's geometric centre.
func (r Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for i := range r.Lo {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Margin returns the sum of the edge lengths of r (perimeter/2 in 2D).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// ContainsPoint reports whether p lies inside r (boundaries inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	for i := range p {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Union returns the MBR of r and s.
func (r Rect) Union(s Rect) Rect {
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Lo))
	for i := range r.Lo {
		lo[i] = math.Min(r.Lo[i], s.Lo[i])
		hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// MinDistSqPointRect returns mindist(p, r)²: the square of the smallest
// possible distance between p and any point inside r, zero when p lies
// in r. mindist(p, r) is the classic R-tree pruning bound of [RKV95] and
// the mindist(p, M) of heuristic 2 applied to leaf entries.
func MinDistSqPointRect(p Point, r Rect) float64 {
	var s float64
	for i := range p {
		var d float64
		switch {
		case p[i] < r.Lo[i]:
			d = r.Lo[i] - p[i]
		case p[i] > r.Hi[i]:
			d = p[i] - r.Hi[i]
		}
		s += d * d
	}
	return s
}

// MinDistRectRect returns mindist(r, s): the smallest possible distance
// between any point of r and any point of s; zero when they intersect.
// Used by heuristics 2 and 5 (node MBR vs query-group MBR) and by the
// closest-pair algorithm of [HS98].
func MinDistRectRect(r, s Rect) float64 {
	return math.Sqrt(MinDistSqRectRect(r, s))
}

// MinDistSqRectRect is the squared version of MinDistRectRect.
func MinDistSqRectRect(r, s Rect) float64 {
	var sum float64
	for i := range r.Lo {
		var d float64
		switch {
		case s.Hi[i] < r.Lo[i]:
			d = r.Lo[i] - s.Hi[i]
		case r.Hi[i] < s.Lo[i]:
			d = s.Lo[i] - r.Hi[i]
		}
		sum += d * d
	}
	return sum
}
