package geom

import (
	"math"
	"math/rand"
	"testing"
)

// mebFixtures are hand-picked point sets with known minimum enclosing
// balls, including every degenerate shape the Welzl recursion can hand
// the circumsphere solver: duplicates, collinear boundary sets, and
// boundary sets larger than the affinely independent support.
var mebFixtures = []struct {
	name   string
	pts    []Point
	center Point
	radius float64
}{
	{"single", []Point{pt(3, -4)}, pt(3, -4), 0},
	{"pair", []Point{pt(0, 0), pt(6, 8)}, pt(3, 4), 5},
	{"pair-1d", []Point{pt(-2), pt(6)}, pt(2), 4},
	{"duplicates", []Point{pt(1, 2), pt(1, 2), pt(1, 2)}, pt(1, 2), 0},
	{"two-plus-dup", []Point{pt(0, 0), pt(4, 0), pt(0, 0)}, pt(2, 0), 2},
	// Equilateral-ish triangle: circumcenter at the centroid for the
	// equilateral case. Use (0,0), (2,0), (1,√3): circumcenter (1, 1/√3),
	// circumradius 2/√3.
	{"equilateral", []Point{pt(0, 0), pt(2, 0), pt(1, math.Sqrt(3))},
		pt(1, 1/math.Sqrt(3)), 2 / math.Sqrt(3)},
	// Obtuse triangle: the MEB is the diametral ball of the longest edge,
	// NOT the circumcircle (the far vertex is inside the diametral ball).
	{"obtuse", []Point{pt(0, 0), pt(10, 0), pt(5, 1)}, pt(5, 0), 5},
	// Collinear points: diametral ball of the extremes.
	{"collinear", []Point{pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 3), pt(4, 4)},
		pt(2, 2), 2 * math.Sqrt2},
	// Interior points must not influence the ball.
	{"interior", []Point{pt(-3, 0), pt(3, 0), pt(0, 1), pt(1, -1), pt(0, 0)},
		pt(0, 0), 3},
	// Square: circumscribed ball through all four corners.
	{"square", []Point{pt(-1, -1), pt(1, -1), pt(1, 1), pt(-1, 1)},
		pt(0, 0), math.Sqrt2},
	// 3-d regular tetrahedron vertices on the unit sphere.
	{"tetrahedron", []Point{
		pt(1, 1, 1), pt(1, -1, -1), pt(-1, 1, -1), pt(-1, -1, 1),
	}, pt(0, 0, 0), math.Sqrt(3)},
	// 3-d collinear (affinely dependent in every subset of ≥ 3).
	{"collinear-3d", []Point{pt(0, 0, 0), pt(1, 2, 2), pt(2, 4, 4), pt(3, 6, 6)},
		pt(1.5, 3, 3), 4.5},
}

// minEnclosingBall is the MEB of pts on a fresh scratch.
func minEnclosingBall(pts []Point) Ball {
	var s MEBScratch
	return s.MinEnclosingBall(pts)
}

func TestMinEnclosingBallFixtures(t *testing.T) {
	for _, tc := range mebFixtures {
		b := minEnclosingBall(tc.pts)
		if !almostEqual(b.Radius, tc.radius) {
			t.Errorf("%s: radius = %v, want %v", tc.name, b.Radius, tc.radius)
		}
		for ax := range tc.center {
			if !almostEqual(b.Center[ax], tc.center[ax]) {
				t.Errorf("%s: center = %v, want %v", tc.name, b.Center, tc.center)
				break
			}
		}
		checkBallInvariants(t, tc.name, tc.pts, b)
	}
}

// checkBallInvariants asserts the contract every MEB must satisfy
// regardless of geometry: containment of the whole input, internal
// consistency of Radius/RadiusSq, a non-empty support set drawn from the
// input with every support point on the boundary, and minimality against
// the classic candidate families (no pairwise diametral ball or triple
// circumcircle that encloses everything may be smaller).
func checkBallInvariants(t *testing.T, name string, pts []Point, b Ball) {
	t.Helper()
	if b.RadiusSq < 0 || math.Abs(b.Radius*b.Radius-b.RadiusSq) > 1e-9*(1+b.RadiusSq) {
		t.Errorf("%s: inconsistent Radius %v vs RadiusSq %v", name, b.Radius, b.RadiusSq)
	}
	for i, p := range pts {
		if !containsSq(b.Center, b.RadiusSq, p) {
			t.Errorf("%s: point %d %v outside ball c=%v r=%v (dist %v)",
				name, i, p, b.Center, b.Radius, Dist(p, b.Center))
		}
	}
	if len(b.Support) == 0 || len(b.Support) > len(pts[0])+1 {
		t.Errorf("%s: support size %d out of range [1, d+1]", name, len(b.Support))
	}
	for _, s := range b.Support {
		fromInput := false
		for _, p := range pts {
			if samePoint(s, p) {
				fromInput = true
				break
			}
		}
		if !fromInput {
			t.Errorf("%s: support point %v not in the input set", name, s)
		}
		if d := Dist(s, b.Center); math.Abs(d-b.Radius) > 1e-6*(1+b.Radius) {
			t.Errorf("%s: support point %v off the boundary: dist %v, radius %v",
				name, s, d, b.Radius)
		}
	}
	// Lower bound: the ball must cover the farthest pair, so the radius is
	// at least half the diameter of the set.
	var maxPair float64
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := Dist(pts[i], pts[j]); d > maxPair {
				maxPair = d
			}
		}
	}
	if b.Radius < maxPair/2-1e-9*(1+maxPair) {
		t.Errorf("%s: radius %v below half the set diameter %v", name, b.Radius, maxPair/2)
	}
	// Minimality: no enclosing candidate ball from the pairwise-midpoint
	// or triple-circumcircle families may be smaller. (For d ≤ 3 these
	// families plus 4-point circumspheres contain the true MEB; comparing
	// against the enclosing members is a valid one-sided check in any d.)
	slack := 1e-7 * (1 + b.Radius)
	check := func(c Point, rSq float64) {
		r := math.Sqrt(rSq)
		if r >= b.Radius-slack {
			return
		}
		for _, p := range pts {
			if !containsSq(c, rSq, p) {
				return
			}
		}
		t.Errorf("%s: found smaller enclosing ball c=%v r=%v than reported r=%v",
			name, c, r, b.Radius)
	}
	d := len(pts[0])
	mid := make(Point, d)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			for ax := 0; ax < d; ax++ {
				mid[ax] = (pts[i][ax] + pts[j][ax]) / 2
			}
			check(mid, DistSq(mid, pts[i]))
		}
	}
	if d >= 2 {
		c := make(Point, d)
		m := make([]float64, d*(d+1))
		lam := make([]float64, d)
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				for k := j + 1; k < len(pts); k++ {
					sup := []Point{pts[i], pts[j], pts[k]}
					if circumsphere(sup, c, m, lam) {
						check(c, supportRadiusSq(c, sup))
					}
				}
			}
		}
	}
}

// TestMinEnclosingBallRandom drives the invariant checker over random
// sets in 1..4 dimensions, including clustered and axis-degenerate
// shapes, at group sizes bracketing the d+1 boundary.
func TestMinEnclosingBallRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, d := range []int{1, 2, 3, 4} {
		for _, n := range []int{1, 2, 3, 4, 5, 8, 17, 64} {
			for trial := 0; trial < 20; trial++ {
				pts := make([]Point, n)
				for i := range pts {
					p := make(Point, d)
					for ax := range p {
						p[ax] = rng.Float64()*200 - 100
					}
					// A third of the trials squash one axis to force
					// affinely dependent boundary sets.
					if trial%3 == 0 && d > 1 {
						p[0] = 7.25
					}
					pts[i] = p
				}
				b := minEnclosingBall(pts)
				checkBallInvariants(t, "random", pts, b)
			}
		}
	}
}

// TestMEBScratchReuse asserts a single scratch reproduces the fresh
// solver bit for bit across interleaved calls of different sizes and
// dimensions, and that Reset drops retained point references.
func TestMEBScratchReuse(t *testing.T) {
	var s MEBScratch
	for _, tc := range mebFixtures {
		want := minEnclosingBall(tc.pts)
		got := s.MinEnclosingBall(tc.pts)
		if got.RadiusSq != want.RadiusSq {
			t.Errorf("%s: scratch RadiusSq %v != fresh %v", tc.name, got.RadiusSq, want.RadiusSq)
		}
		for ax := range want.Center {
			if got.Center[ax] != want.Center[ax] {
				t.Errorf("%s: scratch center %v != fresh %v", tc.name, got.Center, want.Center)
				break
			}
		}
		if len(got.Support) != len(want.Support) {
			t.Errorf("%s: scratch support size %d != fresh %d",
				tc.name, len(got.Support), len(want.Support))
		}
	}
	s.Reset()
	for _, p := range s.pts[:cap(s.pts)] {
		if p != nil {
			t.Fatal("Reset left a point reference in the working buffer")
		}
	}
	for _, p := range s.bnd[:cap(s.bnd)] {
		if p != nil {
			t.Fatal("Reset left a point reference in the boundary buffer")
		}
	}
	// The scratch stays usable after Reset.
	b := s.MinEnclosingBall([]Point{pt(0, 0), pt(2, 0)})
	if !almostEqual(b.Radius, 1) {
		t.Fatalf("post-Reset ball radius = %v, want 1", b.Radius)
	}
}

// TestMEBTranslationInvariance asserts the solver commutes with
// translation to ulp-level accuracy: the Gram system is built from
// coordinate differences, so the barycentric solution is exactly
// invariant and only the final center assembly (sup[0] + Σ λ_i v_i)
// re-rounds under the offset. The query-level metamorphic suite relies
// on the kernel's slack term absorbing exactly this drift.
func TestMEBTranslationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	off := pt(131072, -65536) // power-of-two offsets: exact FP translation
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		pts := make([]Point, n)
		moved := make([]Point, n)
		for i := range pts {
			p := pt(float64(rng.Intn(1<<20)), float64(rng.Intn(1<<20)))
			pts[i] = p
			moved[i] = pt(p[0]+off[0], p[1]+off[1])
		}
		a := minEnclosingBall(pts)
		b := minEnclosingBall(moved)
		rtol := 1e-12 * (1 + a.RadiusSq)
		if math.Abs(a.RadiusSq-b.RadiusSq) > rtol {
			t.Fatalf("trial %d: RadiusSq drifted under translation: %v vs %v",
				trial, a.RadiusSq, b.RadiusSq)
		}
		ctol := 1e-9 * (1 + math.Abs(off[0]) + math.Abs(off[1]))
		if math.Abs(a.Center[0]+off[0]-b.Center[0]) > ctol ||
			math.Abs(a.Center[1]+off[1]-b.Center[1]) > ctol {
			t.Fatalf("trial %d: center drifted under translation: %v vs %v",
				trial, a.Center, b.Center)
		}
	}
}

func samePoint(a, b Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
