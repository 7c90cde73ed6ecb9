package geom

import "math"

// Minimum enclosing ball (MEB) of a point set, the structure behind the
// dedicated aggregate-MAX kernel: for the MEB (c*, r*) of a query group Q,
// every point p satisfies
//
//	dist_max(p,Q)² ≥ |p−c*|² + r*²
//
// because the center of the minimal ball lies in the convex hull of its
// support points, so some support point s has (s−c*)·(p−c*) ≤ 0, whence
// |p−s|² = |p−c*|² + |s−c*|² − 2(p−c*)·(s−c*) ≥ |p−c*|² + r*². The kernel
// turns this into an O(d) per-node pruning bound that stays tight exactly
// where the aggregate-MAX answer lives — inside the group's hull, where
// the per-member mindist bounds (heuristics 2/3) collapse to zero.
//
// The solver is Welzl's recursive algorithm: exact circumspheres over
// boundary sets of at most d+1 points, with a subset-enumeration fallback
// for affinely dependent (collinear, duplicated) boundary sets. It is
// deterministic — no randomized restart — which the differential suites
// rely on.

// Ball is a d-dimensional closed ball. Center and Support returned by a
// scratch-backed computation are views into the scratch's buffers, valid
// until its next call.
type Ball struct {
	Center   Point
	Radius   float64
	RadiusSq float64
	// Support holds points of the input set that determine the ball; the
	// center lies in their convex hull and all of them lie on (or within
	// floating-point noise of) the boundary.
	Support []Point
}

// mebEps is the relative containment tolerance of the solver. Points
// within rSq·(1+mebEps) of the squared radius count as enclosed, which
// keeps the recursion from chasing ulp-level violations into degenerate
// boundary sets.
const mebEps = 1e-10

func containsSq(c Point, rSq float64, p Point) bool {
	if rSq < 0 {
		return false // the empty ball
	}
	return DistSq(p, c) <= rSq+mebEps*(1+rSq)
}

// MEBScratch holds the reusable buffers of the MEB solver so a pooled
// caller computes the ball allocation-free once warm. The zero value is
// ready to use. Not safe for concurrent use.
type MEBScratch struct {
	pts  []Point   // working copy of the input order (Welzl peels from the end)
	bnd  []Point   // boundary set, at most d+1 points
	sub  []Point   // subset buffer of the degenerate fallback
	c    Point     // the live ball's center
	cand Point     // candidate center of the degenerate fallback
	bc   Point     // best center of the degenerate fallback
	m    []float64 // augmented Gram matrix of the circumsphere solve
	lam  []float64 // barycentric solution of the circumsphere solve
	dim  int
}

// Reset drops the point references the scratch retained, so a pooled
// scratch does not pin a finished query's group.
func (s *MEBScratch) Reset() {
	clear(s.pts[:cap(s.pts)])
	clear(s.bnd[:cap(s.bnd)])
	clear(s.sub[:cap(s.sub)])
	s.pts = s.pts[:0]
}

// MinEnclosingBall computes the MEB of a non-empty point set into the
// scratch's buffers; it panics when pts is empty. The returned Center and
// Support are views valid until the next call on the same scratch.
func (s *MEBScratch) MinEnclosingBall(pts []Point) Ball {
	if len(pts) == 0 {
		panic("geom: MinEnclosingBall of empty point set")
	}
	d := len(pts[0])
	s.dim = d
	s.pts = append(s.pts[:0], pts...)
	s.bnd = growPts(s.bnd, d+1)
	s.sub = growPts(s.sub, d+1)
	s.c = growFloat(s.c, d)
	s.cand = growFloat(s.cand, d)
	s.bc = growFloat(s.bc, d)
	s.m = growFloat(s.m, d*(d+1))
	s.lam = growFloat(s.lam, d)
	rSq, nb := s.welzl(len(s.pts), 0)
	if rSq < 0 {
		// Unreachable for non-empty input, but keep the invariant total.
		copy(s.c, pts[0])
		rSq, nb = 0, 1
		s.bnd[0] = pts[0]
	}
	return Ball{Center: s.c, Radius: math.Sqrt(rSq), RadiusSq: rSq, Support: s.bnd[:nb]}
}

// welzl returns the squared radius (into s.c, the center) of the smallest
// ball enclosing s.pts[:n] with s.bnd[:b] on its boundary, and the final
// boundary size. The classic recursion: peel a point, solve without it,
// and promote it to the boundary only when it falls outside.
func (s *MEBScratch) welzl(n, b int) (float64, int) {
	if n == 0 || b == s.dim+1 {
		return s.ballOf(b), b
	}
	p := s.pts[n-1]
	rSq, nb := s.welzl(n-1, b)
	if rSq >= 0 && containsSq(s.c, rSq, p) {
		return rSq, nb
	}
	s.bnd[b] = p
	return s.welzl(n-1, b+1)
}

// ballOf computes the smallest ball with s.bnd[:b] on its boundary into
// s.c, returning its squared radius (-1 for the empty boundary: a ball
// containing nothing).
func (s *MEBScratch) ballOf(b int) float64 {
	switch b {
	case 0:
		return -1
	case 1:
		copy(s.c, s.bnd[0])
		return 0
	case 2:
		for i := range s.c {
			s.c[i] = (s.bnd[0][i] + s.bnd[1][i]) / 2
		}
		return DistSq(s.c, s.bnd[0])
	}
	if circumsphere(s.bnd[:b], s.c, s.m, s.lam) {
		return supportRadiusSq(s.c, s.bnd[:b])
	}
	return s.smallestOf(b)
}

// supportRadiusSq returns the largest squared center-to-support distance,
// so the reported radius always encloses the support set even when the
// solved center is off-equidistant by an ulp.
func supportRadiusSq(c Point, sup []Point) float64 {
	var r float64
	for _, p := range sup {
		if d := DistSq(p, c); d > r {
			r = d
		}
	}
	return r
}

// circumsphere solves for the unique sphere through all points of sup
// (|sup| ≥ 3): with v_i = sup[i]−sup[0], the center is sup[0] + Σ λ_i v_i
// where 2(v_i·v_j)λ_j = |v_i|². Gaussian elimination with partial
// pivoting over the scratch matrix m; reports false when the system is
// (near-)singular, i.e. the points are affinely dependent.
func circumsphere(sup []Point, c Point, m, lam []float64) bool {
	n := len(sup) - 1 // unknowns
	w := n + 1        // row width (augmented)
	var scale float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var dot float64
			for ax := range sup[0] {
				dot += (sup[i+1][ax] - sup[0][ax]) * (sup[j+1][ax] - sup[0][ax])
			}
			m[i*w+j] = 2 * dot
			if i == j {
				m[i*w+n] = dot // the RHS |v_i|² is the diagonal dot product
				if v := math.Abs(2 * dot); v > scale {
					scale = v
				}
			}
		}
	}
	if scale == 0 {
		return false // every support point coincides with sup[0]
	}
	tiny := 1e-12 * scale
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r*w+col]) > math.Abs(m[piv*w+col]) {
				piv = r
			}
		}
		if math.Abs(m[piv*w+col]) <= tiny {
			return false
		}
		if piv != col {
			for j := col; j < w; j++ {
				m[col*w+j], m[piv*w+j] = m[piv*w+j], m[col*w+j]
			}
		}
		for r := col + 1; r < n; r++ {
			f := m[r*w+col] / m[col*w+col]
			if f == 0 {
				continue
			}
			for j := col; j < w; j++ {
				m[r*w+j] -= f * m[col*w+j]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		v := m[i*w+n]
		for j := i + 1; j < n; j++ {
			v -= m[i*w+j] * lam[j]
		}
		lam[i] = v / m[i*w+i]
	}
	for ax := range c {
		v := sup[0][ax]
		for i := 0; i < n; i++ {
			v += lam[i] * (sup[i+1][ax] - sup[0][ax])
		}
		c[ax] = v
	}
	return true
}

// smallestOf is the degenerate-boundary fallback: the minimum enclosing
// ball of the ≤ d+1 points s.bnd[:b] by enumeration of support subsets
// (collinear or duplicated boundary sets have no common circumsphere, but
// their MEB is determined by an affinely independent subset). The final
// centroid fallback keeps the function total under any floating-point
// misbehavior: it is a valid enclosing ball with its center exactly in
// the convex hull of the boundary set, merely not minimal.
func (s *MEBScratch) smallestOf(b int) float64 {
	best := math.Inf(1)
	found := false
	for mask := 1; mask < 1<<b; mask++ {
		sub := s.sub[:0]
		for i := 0; i < b; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, s.bnd[i])
			}
		}
		var rSq float64
		switch len(sub) {
		case 1:
			copy(s.cand, sub[0])
			rSq = 0
		case 2:
			for i := range s.cand {
				s.cand[i] = (sub[0][i] + sub[1][i]) / 2
			}
			rSq = DistSq(s.cand, sub[0])
		default:
			if !circumsphere(sub, s.cand, s.m, s.lam) {
				continue
			}
			rSq = supportRadiusSq(s.cand, sub)
		}
		if rSq >= best {
			continue
		}
		ok := true
		for i := 0; i < b; i++ {
			if !containsSq(s.cand, rSq, s.bnd[i]) {
				ok = false
				break
			}
		}
		if ok {
			best = rSq
			copy(s.bc, s.cand)
			found = true
		}
	}
	if found {
		copy(s.c, s.bc)
		return best
	}
	for ax := range s.c {
		var v float64
		for i := 0; i < b; i++ {
			v += s.bnd[i][ax]
		}
		s.c[ax] = v / float64(b)
	}
	return supportRadiusSq(s.c, s.bnd[:b])
}

// growPts returns dst with length n (contents retained up to n),
// reallocating only when capacity is short.
func growPts(dst []Point, n int) []Point {
	if cap(dst) < n {
		nd := make([]Point, n)
		copy(nd, dst)
		return nd
	}
	return dst[:n]
}

// growFloat is growPts for float64 slices.
func growFloat(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}
