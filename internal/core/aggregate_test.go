package core

import (
	"math"
	"math/rand"
	"testing"

	"gnn/internal/geom"
)

// randIn returns a point of dimension d with coordinates in [0, span).
func randIn(rng *rand.Rand, d int, span float64) geom.Point {
	p := make(geom.Point, d)
	for a := range p {
		p[a] = rng.Float64() * span
	}
	return p
}

// TestHeuristicSafety verifies the pruning-soundness statements behind
// heuristics 2 and 3 and MQM's threshold on random rectangles, for SUM,
// MAX and MIN, weighted or not, in 1 to 3 dimensions. Each bound the
// aggregate family computes must lower-bound the exact aggregate
// distance of a point inside the rectangle, heuristic 3 must dominate
// heuristic 2 (the reason heuristic 2 is only a cheap pre-filter), and
// the exact distance must equal the scan oracle bit for bit.
func TestHeuristicSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const tol = 1e-9
	for trial := 0; trial < 3000; trial++ {
		d := 1 + trial%3
		n := 1 + rng.Intn(10)
		qs := make([]geom.Point, n)
		for i := range qs {
			qs[i] = randIn(rng, d, 100)
		}
		var weights []float64
		if trial%2 == 1 {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = 0.25 + rng.Float64()*4
			}
		}
		w, err := newWeightCtx(weights, n)
		if err != nil {
			t.Fatal(err)
		}
		r := geom.NewRect(randIn(rng, d, 200), randIn(rng, d, 200))
		p := make(geom.Point, d)
		for a := range p {
			p[a] = r.Lo[a] + rng.Float64()*(r.Hi[a]-r.Lo[a])
		}
		qmbr := geom.BoundingRect(qs)
		g := new(soaGroup).fill(qs)
		ts := make([]float64, n) // MQM thresholds: t_j ≤ |p q_j|
		for j, q := range qs {
			ts[j] = geom.Dist(p, q) * rng.Float64()
		}
		for _, a := range []Aggregate{Sum, Max, Min} {
			exact := aggDistSoA(a, p, g, w)
			if want := scanDists([]geom.Point{p}, qs, a, weights, nil, 1)[0]; exact != want {
				t.Fatalf("trial %d %v d=%d: exact %v, scan oracle %v", trial, a, d, exact, want)
			}
			bound := func(name string, v float64) {
				t.Helper()
				if v > exact*(1+tol)+tol {
					t.Fatalf("trial %d %v d=%d weighted=%v: %s %v exceeds exact %v",
						trial, a, d, w != nil, name, v, exact)
				}
			}
			h2 := quickLBFromMindist(a, geom.MinDistRectRect(r, qmbr), n, w)
			h3 := nodeLBSoA(a, r, g, w)
			bound("heuristic 2", h2)
			bound("heuristic 2 (point)", quickLBFromMindist(a, math.Sqrt(geom.MinDistSqPointRect(p, qmbr)), n, w))
			bound("heuristic 3", h3)
			bound("MQM threshold", combineThresholds(a, ts, w))
			if h3 < h2*(1-tol)-tol {
				t.Fatalf("trial %d %v d=%d: heuristic 3 %v looser than heuristic 2 %v", trial, a, d, h3, h2)
			}
		}
	}
}

// checkClose reports got ≠ want beyond rounding under the given name.
func checkClose(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// TestGroupAggregates pins the exact aggregate distance and MQM's
// threshold fold on hand-computed groups.
func TestGroupAggregates(t *testing.T) {
	qs := []geom.Point{{0, 0}, {10, 0}, {0, 10}}
	g := new(soaGroup).fill(qs)
	w, _ := newWeightCtx([]float64{1, 2, 0.5}, 3)
	p := geom.Point{0, 0}
	checkClose(t, "sum", aggDistSoA(Sum, p, g, nil), 20)
	checkClose(t, "max", aggDistSoA(Max, p, g, nil), 10)
	checkClose(t, "min", aggDistSoA(Min, p, g, nil), 0)
	checkClose(t, "weighted sum", aggDistSoA(Sum, p, g, w), 25)
	checkClose(t, "weighted max", aggDistSoA(Max, p, g, w), 20)
	checkClose(t, "weighted min", aggDistSoA(Min, p, g, w), 0)
	checkClose(t, "threshold max", combineThresholds(Max, []float64{3, 1, 4}, w), 3)
	checkClose(t, "threshold min", combineThresholds(Min, []float64{3, 1, 4}, w), 2)

	// Outside 2-D: the generic path, 3-4-5 and 1-2-2 triangles.
	g.fill([]geom.Point{{3, 4, 0}, {1, 2, 2}})
	checkClose(t, "3-D sum", aggDistSoA(Sum, geom.Point{0, 0, 0}, g, nil), 8)
	checkClose(t, "3-D max", aggDistSoA(Max, geom.Point{0, 0, 0}, g, nil), 5)
	g.fill([]geom.Point{{-2}, {7}})
	checkClose(t, "1-D min", aggDistSoA(Min, geom.Point{1}, g, nil), 3)
}

// TestHeuristic3Groups pins heuristic 3 — for SUM, the sum of the
// mindists from a rectangle to the group's members — and its MAX and
// MIN analogues on hand-computed rectangles and groups.
func TestHeuristic3Groups(t *testing.T) {
	w, _ := newWeightCtx([]float64{1, 2, 0.5}, 3)
	// Mindists 3, 3 and 0 from r to the members.
	r := geom.NewRect(geom.Point{0, 0}, geom.Point{2, 2})
	g := new(soaGroup).fill([]geom.Point{{5, 0}, {-3, 0}, {1, 1}})
	checkClose(t, "h3 sum", nodeLBSoA(Sum, r, g, nil), 6)
	checkClose(t, "h3 max", nodeLBSoA(Max, r, g, nil), 3)
	checkClose(t, "h3 min", nodeLBSoA(Min, r, g, nil), 0)
	checkClose(t, "h3 weighted sum", nodeLBSoA(Sum, r, g, w), 9)

	// Outside 2-D: mindists 2 and 2 from [0, 5] to -2 and 7.
	g.fill([]geom.Point{{-2}, {7}})
	checkClose(t, "1-D h3", nodeLBSoA(Sum, geom.NewRect(geom.Point{0}, geom.Point{5}), g, nil), 4)
}

// TestSquaredAggregateVariants: unweighted MAX and MIN fold squared
// terms and take one Sqrt of the winner, while the weighted path takes a
// Sqrt per member. Sqrt is monotone and correctly rounded, so with unit
// weights the two must agree bit for bit — for the exact distance and
// for heuristic 3, in and outside 2-D — and so must SUM.
func TestSquaredAggregateVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 600; trial++ {
		d := 1 + trial%3
		qs := make([]geom.Point, 1+rng.Intn(8))
		ones := make([]float64, len(qs))
		for i := range qs {
			qs[i] = randIn(rng, d, 200)
			ones[i] = 1
		}
		g := new(soaGroup).fill(qs)
		w, _ := newWeightCtx(ones, len(qs))
		p := randIn(rng, d, 200)
		r := geom.NewRect(randIn(rng, d, 200), randIn(rng, d, 200))
		for _, a := range []Aggregate{Sum, Max, Min} {
			if got, want := aggDistSoA(a, p, g, nil), aggDistSoA(a, p, g, w); got != want {
				t.Fatalf("trial %d %v d=%d: exact %v unweighted, %v with unit weights", trial, a, d, got, want)
			}
			if got, want := nodeLBSoA(a, r, g, nil), nodeLBSoA(a, r, g, w); got != want {
				t.Fatalf("trial %d %v d=%d: heuristic 3 %v unweighted, %v with unit weights", trial, a, d, got, want)
			}
		}
	}
}
