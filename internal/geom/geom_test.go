package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func pt(xs ...float64) Point { return Point(xs) }

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{pt(0, 0), pt(3, 4), 5},
		{pt(1, 1), pt(1, 1), 0},
		{pt(-1, -1), pt(2, 3), 5},
		{pt(0, 0, 0), pt(1, 2, 2), 3},
		{pt(7), pt(4), 3},
	}
	for _, tc := range tests {
		if got := Dist(tc.p, tc.q); !almostEqual(got, tc.want) {
			t.Errorf("Dist(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
		if got := DistSq(tc.p, tc.q); !almostEqual(got, tc.want*tc.want) {
			t.Errorf("DistSq(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want*tc.want)
		}
	}
}

func TestSumDist(t *testing.T) {
	qs := []Point{pt(0, 0), pt(6, 0)}
	if got := SumDist(pt(3, 4), qs); !almostEqual(got, 10) {
		t.Errorf("SumDist = %v, want 10", got)
	}
	if got := SumDist(pt(3, 0), qs); !almostEqual(got, 6) {
		t.Errorf("SumDist on segment = %v, want 6", got)
	}
	if got := SumDist(pt(1, 1), nil); got != 0 {
		t.Errorf("SumDist with empty group = %v, want 0", got)
	}
}

func TestPointEqualClone(t *testing.T) {
	p := pt(1, 2)
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	q[0] = 9
	if p.Equal(q) {
		t.Fatal("clone aliases original")
	}
	if p.Equal(pt(1, 2, 3)) {
		t.Fatal("points of different dim reported equal")
	}
	if p.String() != "(1, 2)" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestNewRectNormalises(t *testing.T) {
	r := NewRect(pt(5, 1), pt(2, 7))
	want := Rect{Lo: pt(2, 1), Hi: pt(5, 7)}
	if !rectEqual(r, want) {
		t.Fatalf("NewRect = %v, want %v", r, want)
	}
	if !r.Valid() {
		t.Fatal("normalised rect invalid")
	}
}

func TestRectValid(t *testing.T) {
	if (Rect{Lo: pt(0, 0), Hi: pt(-1, 1)}).Valid() {
		t.Error("inverted rect reported valid")
	}
	if (Rect{Lo: pt(0), Hi: pt(1, 2)}).Valid() {
		t.Error("mixed-dim rect reported valid")
	}
	if (Rect{}).Valid() {
		t.Error("zero rect reported valid")
	}
	if !(Rect{Lo: pt(3, 3), Hi: pt(3, 3)}).Valid() {
		t.Error("degenerate point rect reported invalid")
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{pt(1, 5), pt(-2, 3), pt(4, 0)}
	r := BoundingRect(pts)
	want := Rect{Lo: pt(-2, 0), Hi: pt(4, 5)}
	if !rectEqual(r, want) {
		t.Fatalf("BoundingRect = %v, want %v", r, want)
	}
	for _, p := range pts {
		if !r.ContainsPoint(p) {
			t.Errorf("BoundingRect does not contain %v", p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("BoundingRect(empty) did not panic")
		}
	}()
	BoundingRect(nil)
}

func TestAreaMarginCenter(t *testing.T) {
	r := NewRect(pt(0, 0), pt(4, 2))
	if got := area(r); got != 8 {
		t.Errorf("Area = %v, want 8", got)
	}
	if got := r.Margin(); got != 6 {
		t.Errorf("Margin = %v, want 6", got)
	}
	if c := r.Center(); !c.Equal(pt(2, 1)) {
		t.Errorf("Center = %v, want (2,1)", c)
	}
}

func TestContainsIntersects(t *testing.T) {
	r := NewRect(pt(0, 0), pt(10, 10))
	s := NewRect(pt(2, 2), pt(5, 5))
	disjoint := NewRect(pt(11, 11), pt(12, 12))
	touching := NewRect(pt(10, 0), pt(12, 2))

	if !containsRect(r, s) || containsRect(r, disjoint) {
		t.Error("containsRect wrong")
	}
	if !intersects(r, s) || !intersects(s, r) {
		t.Error("contained rects must intersect")
	}
	if intersects(r, disjoint) {
		t.Error("disjoint rects intersect")
	}
	if !intersects(r, touching) {
		t.Error("edge-touching rects must intersect (closed rects)")
	}
	if !r.ContainsPoint(pt(10, 10)) {
		t.Error("boundary point not contained")
	}
	if r.ContainsPoint(pt(10.001, 10)) {
		t.Error("outside point contained")
	}
}

func TestIntersectionUnion(t *testing.T) {
	r := NewRect(pt(0, 0), pt(4, 4))
	s := NewRect(pt(2, 2), pt(6, 6))
	if !intersects(r, s) || !intersects(r, NewRect(pt(4, 4), pt(5, 5))) {
		t.Error("overlapping or touching rects do not intersect")
	}
	if intersects(r, NewRect(pt(5, 5), pt(6, 6))) {
		t.Error("disjoint rects intersect")
	}
	u := r.Union(s)
	if !rectEqual(u, NewRect(pt(0, 0), pt(6, 6))) {
		t.Errorf("Union = %v", u)
	}
}

func TestMinDistPointRect(t *testing.T) {
	r := NewRect(pt(0, 0), pt(10, 10))
	tests := []struct {
		p    Point
		want float64
	}{
		{pt(5, 5), 0},      // inside
		{pt(0, 0), 0},      // corner
		{pt(-3, 5), 3},     // left face
		{pt(5, 14), 4},     // top face
		{pt(13, 14), 5},    // corner 3-4-5
		{pt(-3, -4), 5},    // opposite corner
		{pt(10, 10.5), .5}, // just above top-right
	}
	for _, tc := range tests {
		if got := math.Sqrt(MinDistSqPointRect(tc.p, r)); !almostEqual(got, tc.want) {
			t.Errorf("mindist(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestMinDistRectRect(t *testing.T) {
	r := NewRect(pt(0, 0), pt(2, 2))
	tests := []struct {
		s    Rect
		want float64
	}{
		{NewRect(pt(1, 1), pt(3, 3)), 0}, // overlap
		{NewRect(pt(2, 2), pt(3, 3)), 0}, // touch at corner
		{NewRect(pt(5, 0), pt(6, 2)), 3}, // right gap
		{NewRect(pt(5, 6), pt(7, 8)), 5}, // diagonal 3-4-5
		{NewRect(pt(-4, -3), pt(-3, -2)), math.Sqrt(13)},
	}
	for _, tc := range tests {
		if got := MinDistRectRect(r, tc.s); !almostEqual(got, tc.want) {
			t.Errorf("MinDistRectRect(%v) = %v, want %v", tc.s, got, tc.want)
		}
		if got := MinDistRectRect(tc.s, r); !almostEqual(got, tc.want) {
			t.Errorf("MinDistRectRect not symmetric for %v", tc.s)
		}
	}
}

// --- property-based tests ---

type quickPoint struct{ X, Y float64 }

func (q quickPoint) point() Point { return pt(clamp(q.X), clamp(q.Y)) }

// clamp keeps quick-generated coordinates in a sane range so squares do not
// overflow to +Inf.
func clamp(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestQuickTriangleInequality(t *testing.T) {
	f := func(a, b, c quickPoint) bool {
		p, q, r := a.point(), b.point(), c.point()
		return Dist(p, r) <= Dist(p, q)+Dist(q, r)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDistSymmetryAndIdentity(t *testing.T) {
	f := func(a, b quickPoint) bool {
		p, q := a.point(), b.point()
		return almostEqual(Dist(p, q), Dist(q, p)) && Dist(p, p) == 0 && Dist(p, q) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMinDistLowerBound(t *testing.T) {
	// mindist(q, r) must lower-bound the distance from q to every point
	// inside r — the soundness requirement behind every pruning heuristic.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		r := NewRect(randPoint(rng), randPoint(rng))
		q := randPoint(rng)
		in := pointInside(rng, r)
		if d := math.Sqrt(MinDistSqPointRect(q, r)); d > Dist(q, in)+1e-9 {
			t.Fatalf("mindist %v > dist %v for q=%v r=%v in=%v", d, Dist(q, in), q, r, in)
		}
	}
}

func TestQuickMinDistRectRectLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		r := NewRect(randPoint(rng), randPoint(rng))
		s := NewRect(randPoint(rng), randPoint(rng))
		pr := pointInside(rng, r)
		ps := pointInside(rng, s)
		if MinDistRectRect(r, s) > Dist(pr, ps)+1e-9 {
			t.Fatalf("rect-rect mindist exceeds a realisable distance")
		}
	}
}

func TestQuickUnionContains(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		r := NewRect(randPoint(rng), randPoint(rng))
		s := NewRect(randPoint(rng), randPoint(rng))
		u := r.Union(s)
		if !containsRect(u, r) || !containsRect(u, s) {
			t.Fatalf("union %v does not contain operands %v %v", u, r, s)
		}
		if area(u) < area(r)-1e-9 || area(u) < area(s)-1e-9 {
			t.Fatalf("union smaller than operand")
		}
	}
}

// area returns the d-dimensional volume of r (area in 2D).
func area(r Rect) float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// containsRect reports whether s lies entirely inside r.
func containsRect(r, s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// rectEqual reports whether r and s have identical corners.
func rectEqual(r, s Rect) bool {
	return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi)
}

// intersects reports whether r and s share at least one point.
func intersects(r, s Rect) bool {
	for i := range r.Lo {
		if r.Hi[i] < s.Lo[i] || s.Hi[i] < r.Lo[i] {
			return false
		}
	}
	return true
}

func randPoint(rng *rand.Rand) Point {
	return pt(rng.Float64()*200-100, rng.Float64()*200-100)
}

func pointInside(rng *rand.Rand, r Rect) Point {
	p := make(Point, len(r.Lo))
	for i := range p {
		p[i] = r.Lo[i] + rng.Float64()*(r.Hi[i]-r.Lo[i])
	}
	return p
}

func BenchmarkDist(b *testing.B) {
	p, q := pt(1, 2), pt(3, 4)
	for i := 0; i < b.N; i++ {
		_ = Dist(p, q)
	}
}

func BenchmarkMinDistSqPointRect(b *testing.B) {
	p := pt(-3, 5)
	r := NewRect(pt(0, 0), pt(10, 10))
	for i := 0; i < b.N; i++ {
		_ = MinDistSqPointRect(p, r)
	}
}

// TestBoundingRectInto: the in-place variant must agree with BoundingRect
// and reuse the destination's backing arrays when they are large enough.
func TestBoundingRectInto(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := make([]Point, 16)
	for i := range pts {
		pts[i] = randPoint(rng)
	}
	want := BoundingRect(pts)
	dst := Rect{Lo: make(Point, 0, 2), Hi: make(Point, 0, 2)}
	loBase, hiBase := &dst.Lo[:1][0], &dst.Hi[:1][0]
	got := BoundingRectInto(dst, pts)
	if !rectEqual(got, want) {
		t.Fatalf("BoundingRectInto %v != BoundingRect %v", got, want)
	}
	if &got.Lo[0] != loBase || &got.Hi[0] != hiBase {
		t.Fatal("BoundingRectInto reallocated despite sufficient capacity")
	}
	// Small destination must grow, not panic or write out of bounds.
	grown := BoundingRectInto(Rect{}, pts)
	if !rectEqual(grown, want) {
		t.Fatalf("BoundingRectInto from zero Rect %v != %v", grown, want)
	}
}
