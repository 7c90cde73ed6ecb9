package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/rtree"
)

// --- shared helpers ---

// buildTree STR-packs pts at node capacity maxEntries (0: the default)
// with the ids the slice positions.
func buildTree(t testing.TB, pts []geom.Point, maxEntries int) *rtree.Packed {
	t.Helper()
	cfg := rtree.Config{MaxEntries: maxEntries, Dim: dimOf(pts)}
	cols, err := rtree.Columns(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rtree.PackSTR(cfg, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildShuffled is buildTree with about a quarter of the points swapped
// into random leaves (drawn from seed): every routing rectangle is
// recomputed over the moved points, so nodes overlap their siblings the
// way no bulk-load order makes them. The arena is rebuilt from its
// snapshot form with rtree.PackedFromSnapshot and checked with
// CheckInvariants.
func buildShuffled(t testing.TB, pts []geom.Point, maxEntries int, seed int64) *rtree.Packed {
	t.Helper()
	st := buildTree(t, pts, maxEntries).Snapshot() // borrows the arena, which is dropped
	rng := rand.New(rand.NewSource(seed))
	for i := range st.IDs {
		if rng.Intn(4) != 0 {
			continue
		}
		j := rng.Intn(len(st.IDs))
		st.IDs[i], st.IDs[j] = st.IDs[j], st.IDs[i]
		for _, col := range st.PointCols {
			col[i], col[j] = col[j], col[i]
		}
	}
	// A node's routing slots precede its children's (depth-first
	// preorder), so walking the slots backwards refits every child before
	// the rectangle that bounds it.
	for s := len(st.Child) - 1; s >= 0; s-- {
		c := st.Child[s]
		lo, hi := st.RectLo, st.RectHi
		if st.Level[c] == 0 {
			lo, hi = st.PointCols, st.PointCols
		}
		for a := range st.RectLo {
			l, h := lo[a][st.Start[c]], hi[a][st.Start[c]]
			for i := st.Start[c] + 1; i < st.End[c]; i++ {
				l, h = math.Min(l, lo[a][i]), math.Max(h, hi[a][i])
			}
			st.RectLo[a][s], st.RectHi[a][s] = l, h
		}
	}
	p, err := rtree.PackedFromSnapshot(st, len(st.PointCols), rtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return p
}

// dimOf is the dimension of pts, or 0 (the default, 2) when it is empty.
func dimOf(pts []geom.Point) int {
	if len(pts) == 0 {
		return 0
	}
	return len(pts[0])
}

// on runs a memory-resident kernel on arena p.
func on(p *rtree.Packed, kernel func(*rtree.Tree, []geom.Point, Options) ([]GroupNeighbor, error),
	qs []geom.Point, opt Options) ([]GroupNeighbor, error) {
	opt.Packed = p
	return kernel(p.Tree(), qs, opt)
}

// iterOn starts an incremental GNN scan of arena p.
func iterOn(p *rtree.Packed, qs []geom.Point, opt Options) (*GNNIterator, error) {
	opt.Packed = p
	return NewGNNIterator(p.Tree(), qs, opt)
}

// diskOn runs a disk-resident kernel on arena p.
func diskOn(p *rtree.Packed, kernel func(*rtree.Tree, *QueryFile, Options) (*DiskReport, error),
	qf *QueryFile, opt Options) (*DiskReport, error) {
	opt.Packed = p
	return kernel(p.Tree(), qf, opt)
}

// newKBest returns a standalone accumulator for k results whose buffers
// grow with the results held.
func newKBest(k int) *kbest {
	return &kbest{k: k}
}

func randPts(rng *rand.Rand, n int, span float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * span, rng.Float64() * span}
	}
	return pts
}

// clusteredPts mixes clusters and noise so trees have interesting shape.
func clusteredPts(rng *rand.Rand, n int, span float64) []geom.Point {
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		cx, cy := rng.Float64()*span, rng.Float64()*span
		for j := 0; j < 20 && len(pts) < n; j++ {
			pts = append(pts, geom.Point{
				cx + rng.NormFloat64()*span/100,
				cy + rng.NormFloat64()*span/100,
			})
		}
	}
	return pts
}

func sameResults(t *testing.T, name string, got, want []GroupNeighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range got {
		// Distances must agree; IDs may differ only under exact ties.
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-6*(1+want[i].Dist) {
			t.Fatalf("%s: rank %d dist %v, want %v", name, i, got[i].Dist, want[i].Dist)
		}
	}
	// Sorted ascending.
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Fatalf("%s: results not sorted at rank %d", name, i)
		}
	}
}

type memAlgo struct {
	name string
	run  func(*rtree.Tree, []geom.Point, Options) ([]GroupNeighbor, error)
}

var memAlgos = []memAlgo{
	{"MQM", MQM},
	{"SPM", SPM},
	{"MBM", MBM},
}

// --- validation & options ---

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := buildTree(t, randPts(rng, 50, 100), 8)
	for _, a := range memAlgos {
		if _, err := on(tr, a.run, nil, Options{}); !errors.Is(err, ErrEmptyQuery) {
			t.Errorf("%s empty query err = %v", a.name, err)
		}
		if _, err := on(tr, a.run, []geom.Point{{1, 2}}, Options{K: -1}); !errors.Is(err, ErrBadK) {
			t.Errorf("%s bad k err = %v", a.name, err)
		}
		if _, err := on(tr, a.run, []geom.Point{{1, 2, 3}}, Options{}); err == nil {
			t.Errorf("%s accepted 3-D query on 2-D tree", a.name)
		}
	}
	if _, err := on(tr, SPM, []geom.Point{{1, 2}}, Options{Aggregate: Max}); !errors.Is(err, ErrUnsupportedAggregate) {
		t.Errorf("SPM Max err = %v", err)
	}
	if _, err := on(tr, BruteForce, nil, Options{}); !errors.Is(err, ErrEmptyQuery) {
		t.Error("BruteForce accepted empty query")
	}
}

func TestAggregateString(t *testing.T) {
	if Sum.String() != "sum" || Max.String() != "max" || Min.String() != "min" {
		t.Fatal("aggregate names wrong")
	}
	if Aggregate(9).String() != "Aggregate(9)" {
		t.Fatal("unknown aggregate name wrong")
	}
}

func TestEmptyTreeAllAlgorithms(t *testing.T) {
	tr := buildTree(t, nil, 0)
	qs := []geom.Point{{1, 1}, {2, 2}}
	for _, a := range memAlgos {
		got, err := on(tr, a.run, qs, Options{})
		if err != nil || len(got) != 0 {
			t.Errorf("%s on empty tree: %v, %d results", a.name, err, len(got))
		}
	}
}

func TestKBest(t *testing.T) {
	b := newKBest(3)
	if !math.IsInf(b.bound(), 1) {
		t.Fatal("empty bound not +Inf")
	}
	b.offer(GroupNeighbor{ID: 1, Dist: 5})
	b.offer(GroupNeighbor{ID: 2, Dist: 3})
	b.offer(GroupNeighbor{ID: 1, Dist: 5}) // duplicate id
	b.offer(GroupNeighbor{ID: 3, Dist: 7})
	if b.bound() != 7 {
		t.Fatalf("bound = %v", b.bound())
	}
	b.offer(GroupNeighbor{ID: 4, Dist: 1})
	r := b.results()
	if len(r) != 3 || r[0].ID != 4 || r[1].ID != 2 || r[2].ID != 1 {
		t.Fatalf("results = %+v", r)
	}
	if b.offer(GroupNeighbor{ID: 9, Dist: 100}) {
		t.Fatal("worse candidate accepted")
	}
}

// --- correctness vs brute force ---

func TestMemoryAlgorithmsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		var pts []geom.Point
		if trial%2 == 0 {
			pts = randPts(rng, 300+rng.Intn(700), 1000)
		} else {
			pts = clusteredPts(rng, 300+rng.Intn(700), 1000)
		}
		tr := buildTree(t, pts, 4+rng.Intn(12))
		n := 1 + rng.Intn(32)
		k := 1 + rng.Intn(8)
		qs := randPts(rng, n, 400)
		// Shift the query region around, sometimes outside the data.
		dx, dy := rng.Float64()*1200-100, rng.Float64()*1200-100
		for i := range qs {
			qs[i][0] += dx
			qs[i][1] += dy
		}
		opt := Options{K: k}
		want, err := on(tr, BruteForce, qs, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range memAlgos {
			got, err := on(tr, a.run, qs, opt)
			if err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			sameResults(t, a.name, got, want)
		}
	}
}

func TestDepthFirstVariantsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		pts := clusteredPts(rng, 600, 1000)
		tr := buildTree(t, pts, 8)
		qs := randPts(rng, 16, 300)
		opt := Options{K: 4, Traversal: DepthFirst}
		want, _ := on(tr, BruteForce, qs, opt)
		for _, a := range []memAlgo{{"SPM-DF", SPM}, {"MBM-DF", MBM}} {
			got, err := on(tr, a.run, qs, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, a.name, got, want)
		}
	}
}

func TestMBMHeuristic2Only(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		pts := randPts(rng, 800, 1000)
		tr := buildTree(t, pts, 10)
		qs := randPts(rng, 8, 200)
		want, _ := on(tr, BruteForce, qs, Options{K: 3})
		for _, trav := range []Traversal{BestFirst, DepthFirst} {
			got, err := on(tr, MBM, qs, Options{K: 3, DisableHeuristic3: true, Traversal: trav})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "MBM-H2only", got, want)
		}
	}
}

func TestHeuristic3NeverWorseNA(t *testing.T) {
	// Heuristic 3 may only reduce node accesses relative to heuristic 2
	// alone (footnote 3 compares against SPM, but H3 ⊇ H2 prunes).
	rng := rand.New(rand.NewSource(5))
	pts := clusteredPts(rng, 4000, 1000)
	tr := buildTree(t, pts, 20)
	var naFull, naH2 int64
	for trial := 0; trial < 20; trial++ {
		qs := randPts(rng, 32, 250)
		tr.Tree().Accountant().Reset()
		if _, err := on(tr, MBM, qs, Options{}); err != nil {
			t.Fatal(err)
		}
		naFull += tr.Tree().Accountant().Physical()
		tr.Tree().Accountant().Reset()
		if _, err := on(tr, MBM, qs, Options{DisableHeuristic3: true}); err != nil {
			t.Fatal(err)
		}
		naH2 += tr.Tree().Accountant().Physical()
	}
	if naFull > naH2 {
		t.Fatalf("full MBM NA %d > H2-only NA %d", naFull, naH2)
	}
}

func TestSingleQueryPointDegeneratesToNN(t *testing.T) {
	// With n=1 a GNN query is a plain NN query; all methods must agree
	// with the classical R-tree NN search.
	rng := rand.New(rand.NewSource(6))
	pts := randPts(rng, 500, 1000)
	tr := buildTree(t, pts, 8)
	for trial := 0; trial < 10; trial++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		nn := tr.Reader(nil).NearestBF(q, 5)
		for _, a := range memAlgos {
			got, err := on(tr, a.run, []geom.Point{q}, Options{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if math.Abs(got[i].Dist-nn[i].Dist) > 1e-9 {
					t.Fatalf("%s: rank %d %v vs NN %v", a.name, i, got[i].Dist, nn[i].Dist)
				}
			}
		}
	}
}

func TestCoincidentQueryPoints(t *testing.T) {
	// All query points identical: dist(p,Q) = n·|pq|; results must equal
	// plain NN.
	rng := rand.New(rand.NewSource(7))
	pts := randPts(rng, 400, 1000)
	tr := buildTree(t, pts, 8)
	q := geom.Point{321, 654}
	qs := []geom.Point{q.Clone(), q.Clone(), q.Clone(), q.Clone()}
	nn := tr.Reader(nil).NearestBF(q, 3)
	for _, a := range memAlgos {
		got, err := on(tr, a.run, qs, Options{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i].Dist-4*nn[i].Dist) > 1e-6 {
				t.Fatalf("%s: %v vs 4·%v", a.name, got[i].Dist, nn[i].Dist)
			}
		}
	}
}

func TestKLargerThanDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randPts(rng, 10, 100)
	tr := buildTree(t, pts, 4)
	qs := randPts(rng, 4, 100)
	want, _ := on(tr, BruteForce, qs, Options{K: 25})
	if len(want) != 10 {
		t.Fatalf("brute force returned %d", len(want))
	}
	for _, a := range memAlgos {
		got, err := on(tr, a.run, qs, Options{K: 25})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, a.name, got, want)
	}
}

func TestMaxMinAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		pts := randPts(rng, 500, 1000)
		tr := buildTree(t, pts, 8)
		qs := randPts(rng, 8, 300)
		for _, agg := range []Aggregate{Max, Min} {
			opt := Options{K: 3, Aggregate: agg}
			want, err := on(tr, BruteForce, qs, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []memAlgo{{"MQM", MQM}, {"MBM", MBM}} {
				got, err := on(tr, a.run, qs, opt)
				if err != nil {
					t.Fatalf("%s/%v: %v", a.name, agg, err)
				}
				sameResults(t, a.name+"/"+agg.String(), got, want)
			}
			gotDF, err := on(tr, MBM, qs, Options{K: 3, Aggregate: agg, Traversal: DepthFirst})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "MBM-DF/"+agg.String(), gotDF, want)
		}
	}
}

func TestCentroidMethodsAllCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := clusteredPts(rng, 800, 1000)
	tr := buildTree(t, pts, 8)
	for trial := 0; trial < 8; trial++ {
		qs := randPts(rng, 16, 400)
		want, _ := on(tr, BruteForce, qs, Options{K: 2})
		for _, cm := range []CentroidMethod{GradientDescent, Weiszfeld, ArithmeticMean} {
			got, err := on(tr, SPM, qs, Options{K: 2, Centroid: cm})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "SPM", got, want)
		}
	}
}

func TestGNNIteratorIncrementalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPts(rng, 300, 500)
	tr := buildTree(t, pts, 8)
	qs := randPts(rng, 8, 200)
	want, _ := on(tr, BruteForce, qs, Options{K: len(pts)})
	it, err := iterOn(tr, qs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		g, ok := it.Next()
		if !ok {
			if i != len(pts) {
				t.Fatalf("iterator stopped at %d of %d", i, len(pts))
			}
			break
		}
		if math.Abs(g.Dist-want[i].Dist) > 1e-6 {
			t.Fatalf("rank %d: %v vs %v", i, g.Dist, want[i].Dist)
		}
		if lb, ok := it.PeekDist(); ok && lb < g.Dist-1e-9 {
			t.Fatalf("PeekDist %v below yielded %v", lb, g.Dist)
		}
	}
}

func TestMBMOutperformsMQMOnNodeAccesses(t *testing.T) {
	// The headline experimental finding (Fig 5.1): MBM ≪ MQM in NA for
	// moderately large n.
	rng := rand.New(rand.NewSource(12))
	pts := clusteredPts(rng, 5000, 1000)
	tr := buildTree(t, pts, 20)
	var naMQM, naMBM int64
	for trial := 0; trial < 10; trial++ {
		qs := randPts(rng, 64, 250)
		tr.Tree().Accountant().Reset()
		if _, err := on(tr, MQM, qs, Options{K: 4}); err != nil {
			t.Fatal(err)
		}
		naMQM += tr.Tree().Accountant().Physical()
		tr.Tree().Accountant().Reset()
		if _, err := on(tr, MBM, qs, Options{K: 4}); err != nil {
			t.Fatal(err)
		}
		naMBM += tr.Tree().Accountant().Physical()
	}
	if naMBM*2 > naMQM {
		t.Fatalf("MBM NA %d not clearly below MQM NA %d", naMBM, naMQM)
	}
}

// bruteForcePoints is the reference answer over a plain point slice (ids
// are the slice indexes): every point scored by geom.SumDist, the k
// smallest kept, ties in slice order. It validates the disk-resident
// algorithms without building a tree.
func bruteForcePoints(pts, qs []geom.Point, k int) []GroupNeighbor {
	all := make([]GroupNeighbor, len(pts))
	for i, p := range pts {
		all[i] = GroupNeighbor{Point: p, ID: int64(i), Dist: geom.SumDist(p, qs)}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
	return all[:min(k, len(all))]
}

func TestBruteForcePoints(t *testing.T) {
	pts := []geom.Point{{0, 0}, {10, 0}, {5, 0}}
	qs := []geom.Point{{4, 0}, {6, 0}}
	got := bruteForcePoints(pts, qs, 2)
	if len(got) != 2 || got[0].ID != 2 || got[0].Dist != 2 || got[1].Dist != 10 {
		t.Fatalf("got %+v", got)
	}
	if all := bruteForcePoints(pts, qs, 5); len(all) != 3 || all[1].ID != 0 || all[2].ID != 1 {
		t.Fatalf("k above the point count: %+v (ties must keep slice order)", all)
	}
}
