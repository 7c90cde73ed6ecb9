package core

import (
	"math"
	"math/rand"
	"testing"

	"gnn/internal/geom"
)

// bruteWeighted is the specification for weighted aggregate distances.
func bruteWeighted(pts, qs []geom.Point, w []float64, agg Aggregate, region *geom.Rect, k int) []GroupNeighbor {
	best := newKBest(k)
	for i, p := range pts {
		if region != nil && !region.ContainsPoint(p) {
			continue
		}
		var d float64
		switch agg {
		case Max:
			for j, q := range qs {
				if v := w[j] * geom.Dist(p, q); v > d {
					d = v
				}
			}
		case Min:
			d = math.Inf(1)
			for j, q := range qs {
				if v := w[j] * geom.Dist(p, q); v < d {
					d = v
				}
			}
		default:
			for j, q := range qs {
				d += w[j] * geom.Dist(p, q)
			}
		}
		best.offer(GroupNeighbor{Point: p, ID: int64(i), Dist: d})
	}
	return best.results()
}

func TestWeightedSumAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 20; trial++ {
		pts := randPts(rng, 300+rng.Intn(300), 1000)
		tr := buildTree(t, pts, 8)
		n := 2 + rng.Intn(12)
		qs := randPts(rng, n, 400)
		w := make([]float64, n)
		for i := range w {
			w[i] = 0.1 + rng.Float64()*5
		}
		k := 1 + rng.Intn(4)
		want := bruteWeighted(pts, qs, w, Sum, nil, k)
		opt := Options{K: k, Weights: w}
		for _, a := range memAlgos {
			got, err := on(tr, a.run, qs, opt)
			if err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			sameResults(t, a.name+"/weighted", got, want)
		}
		// Depth-first variants too.
		for _, a := range []memAlgo{{"SPM-DF", SPM}, {"MBM-DF", MBM}} {
			got, err := on(tr, a.run, qs, Options{K: k, Weights: w, Traversal: DepthFirst})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, a.name+"/weighted", got, want)
		}
	}
}

func TestWeightedMaxMin(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 15; trial++ {
		pts := randPts(rng, 400, 1000)
		tr := buildTree(t, pts, 8)
		qs := randPts(rng, 6, 300)
		w := []float64{1, 2, 0.5, 3, 1.5, 0.25}
		for _, agg := range []Aggregate{Max, Min} {
			want := bruteWeighted(pts, qs, w, agg, nil, 3)
			opt := Options{K: 3, Weights: w, Aggregate: agg}
			for _, a := range []memAlgo{{"MQM", MQM}, {"MBM", MBM}} {
				got, err := on(tr, a.run, qs, opt)
				if err != nil {
					t.Fatalf("%s/%v: %v", a.name, agg, err)
				}
				sameResults(t, a.name+"/"+agg.String()+"w", got, want)
			}
		}
	}
}

func TestWeightValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	tr := buildTree(t, randPts(rng, 50, 100), 8)
	qs := randPts(rng, 3, 100)
	bad := [][]float64{
		{1, 2},              // wrong length
		{1, 2, 0},           // zero weight
		{1, -1, 2},          // negative
		{1, math.NaN(), 1},  // NaN
		{1, math.Inf(1), 1}, // infinite
		{1, 2, 3, 4},        // too long
	}
	for i, w := range bad {
		for _, a := range memAlgos {
			if _, err := on(tr, a.run, qs, Options{Weights: w}); err == nil {
				t.Errorf("case %d: %s accepted bad weights %v", i, a.name, w)
			}
		}
		if _, err := on(tr, BruteForce, qs, Options{Weights: w}); err == nil {
			t.Errorf("case %d: BruteForce accepted bad weights", i)
		}
		if _, err := iterOn(tr, qs, Options{Weights: w}); err == nil {
			t.Errorf("case %d: iterator accepted bad weights", i)
		}
	}
}

func TestWeightedEqualsUnweightedWithUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	pts := randPts(rng, 400, 500)
	tr := buildTree(t, pts, 8)
	qs := randPts(rng, 8, 200)
	ones := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	for _, a := range memAlgos {
		plain, err := on(tr, a.run, qs, Options{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		weighted, err := on(tr, a.run, qs, Options{K: 5, Weights: ones})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, a.name+"/unit-weights", weighted, plain)
	}
}

func TestConstrainedRegionAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 20; trial++ {
		pts := randPts(rng, 500, 1000)
		tr := buildTree(t, pts, 8)
		qs := randPts(rng, 8, 400)
		region := geom.NewRect(
			geom.Point{rng.Float64() * 800, rng.Float64() * 800},
			geom.Point{200 + rng.Float64()*800, 200 + rng.Float64()*800})
		k := 1 + rng.Intn(4)
		ones := make([]float64, len(qs))
		for i := range ones {
			ones[i] = 1
		}
		want := bruteWeighted(pts, qs, ones, Sum, &region, k)
		opt := Options{K: k, Region: &region}
		for _, a := range memAlgos {
			got, err := on(tr, a.run, qs, opt)
			if err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			sameResults(t, a.name+"/region", got, want)
			for _, g := range got {
				if !region.ContainsPoint(g.Point) {
					t.Fatalf("%s returned out-of-region point %v", a.name, g.Point)
				}
			}
		}
	}
}

func TestConstrainedRegionEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	pts := randPts(rng, 200, 100) // all inside [0,100]²
	tr := buildTree(t, pts, 8)
	qs := randPts(rng, 4, 100)
	region := geom.NewRect(geom.Point{500, 500}, geom.Point{600, 600})
	for _, a := range memAlgos {
		got, err := on(tr, a.run, qs, Options{K: 3, Region: &region})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if len(got) != 0 {
			t.Fatalf("%s found %d points in an empty region", a.name, len(got))
		}
	}
}

func TestConstrainedRegionPrunesMBM(t *testing.T) {
	// MBM with a tiny region should visit far fewer nodes than without.
	rng := rand.New(rand.NewSource(66))
	pts := randPts(rng, 5000, 1000)
	tr := buildTree(t, pts, 10)
	qs := randPts(rng, 8, 1000) // spread-out group: expensive unconstrained
	region := geom.NewRect(geom.Point{480, 480}, geom.Point{520, 520})

	tr.Tree().Accountant().Reset()
	if _, err := on(tr, MBM, qs, Options{}); err != nil {
		t.Fatal(err)
	}
	unconstrained := tr.Tree().Accountant().Physical()
	tr.Tree().Accountant().Reset()
	if _, err := on(tr, MBM, qs, Options{Region: &region}); err != nil {
		t.Fatal(err)
	}
	constrained := tr.Tree().Accountant().Physical()
	if constrained > unconstrained {
		t.Fatalf("region increased NA: %d vs %d", constrained, unconstrained)
	}
}

func TestWeightedRegionCombination(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	pts := randPts(rng, 600, 1000)
	tr := buildTree(t, pts, 8)
	qs := randPts(rng, 5, 500)
	w := []float64{2, 1, 3, 0.5, 1}
	region := geom.NewRect(geom.Point{100, 100}, geom.Point{900, 900})
	want := bruteWeighted(pts, qs, w, Sum, &region, 4)
	for _, a := range memAlgos {
		got, err := on(tr, a.run, qs, Options{K: 4, Weights: w, Region: &region})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, a.name+"/weighted+region", got, want)
	}
}

func TestWeightedIteratorOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	pts := randPts(rng, 200, 500)
	tr := buildTree(t, pts, 8)
	qs := randPts(rng, 4, 200)
	w := []float64{4, 1, 2, 0.5}
	want := bruteWeighted(pts, qs, w, Sum, nil, len(pts))
	it, err := iterOn(tr, qs, Options{Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(pts); i++ {
		g, ok := it.Next()
		if !ok {
			t.Fatalf("iterator dry at %d", i)
		}
		if math.Abs(g.Dist-want[i].Dist) > 1e-6 {
			t.Fatalf("rank %d: %v vs %v", i, g.Dist, want[i].Dist)
		}
	}
}
