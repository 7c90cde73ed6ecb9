package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
)

// mustPack STR-packs pts (ids are the slice positions).
func mustPack(t *testing.T, cfg Config, pts []geom.Point) *Packed {
	t.Helper()
	p, err := bulkLoadSTR(cfg, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randPoints(rng *rand.Rand, n int, span float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * span, rng.Float64() * span}
	}
	return pts
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Dim: -1},
		{MaxEntries: 3},
		{MaxEntries: 10, MinEntries: 6}, // > M/2
	}
	for i, cfg := range cases {
		if _, err := PackSTR(cfg, nil, nil); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	cfg := mustPack(t, Config{}, nil).Tree().Config()
	if cfg.MaxEntries != DefaultMaxEntries || cfg.MinEntries != 20 || cfg.Dim != 2 {
		t.Errorf("defaults = M%d m%d d%d", cfg.MaxEntries, cfg.MinEntries, cfg.Dim)
	}
}

func TestEmptyTree(t *testing.T) {
	p := mustPack(t, Config{}, nil)
	tr := p.Tree()
	if tr.Len() != 0 || p.Height() != 1 {
		t.Fatalf("Len/Height = %d/%d", tr.Len(), p.Height())
	}
	if _, ok := tr.Bounds(); ok {
		t.Fatal("empty tree has bounds")
	}
	if nn := p.Reader(nil).NearestBF(geom.Point{0, 0}, 3); nn != nil {
		t.Fatal("NN on empty tree returned results")
	}
	if nn := p.Reader(nil).nearestDF(geom.Point{0, 0}, 3); nn != nil {
		t.Fatal("DF NN on empty tree returned results")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatePoints(t *testing.T) {
	p := geom.Point{5, 5}
	pts := make([]geom.Point, 50)
	for i := range pts {
		pts[i] = p
	}
	tr := mustPack(t, Config{MaxEntries: 4}, pts)
	if err := tr.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	nn := tr.Reader(nil).NearestBF(p, 100)
	if len(nn) != 50 || nn[49].Dist != 0 {
		t.Fatalf("found %d duplicates, want 50 at distance 0", len(nn))
	}
}

func bruteKNN(pts []geom.Point, q geom.Point, k int) []float64 {
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = geom.Dist(q, p)
	}
	sort.Float64s(ds)
	if k > len(ds) {
		k = len(ds)
	}
	return ds[:k]
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 1200, 1000)
	rd := mustPack(t, Config{MaxEntries: 10}, pts).Reader(nil)
	for trial := 0; trial < 60; trial++ {
		q := geom.Point{rng.Float64() * 1200, rng.Float64() * 1200}
		k := 1 + rng.Intn(20)
		want := bruteKNN(pts, q, k)
		for _, algo := range []struct {
			name string
			run  func(geom.Point, int) []Neighbor
		}{{"DF", rd.nearestDF}, {"BF", rd.NearestBF}} {
			got := algo.run(q, k)
			if len(got) != len(want) {
				t.Fatalf("%s trial %d: %d results, want %d", algo.name, trial, len(got), len(want))
			}
			for i := range got {
				if !almostEq(got[i].Dist, want[i]) {
					t.Fatalf("%s trial %d: rank %d dist %v, want %v",
						algo.name, trial, i, got[i].Dist, want[i])
				}
			}
		}
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestNNIteratorFullOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randPoints(rng, 700, 500)
	q := geom.Point{250, 250}
	want := bruteKNN(pts, q, len(pts))
	it := mustPack(t, Config{MaxEntries: 8}, pts).Reader(nil).NewNNIterator(q)
	for i := 0; ; i++ {
		nb, ok := it.Next()
		if !ok {
			if i != len(pts) {
				t.Fatalf("iterator stopped after %d of %d", i, len(pts))
			}
			break
		}
		if !almostEq(nb.Dist, want[i]) {
			t.Fatalf("rank %d: dist %v, want %v", i, nb.Dist, want[i])
		}
		if lb, ok := it.PeekDist(); ok && lb < nb.Dist-1e-9 {
			t.Fatalf("PeekDist %v below last yielded %v", lb, nb.Dist)
		}
	}
}

func TestBFOptimalVsDF(t *testing.T) {
	// BF must access no more nodes than DF (it is I/O optimal, §2).
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 5000, 1000)
	cDF, cBF := pagestore.NewAccountant(0), pagestore.NewAccountant(0)
	trDF := mustPack(t, Config{MaxEntries: 20, Accountant: cDF}, pts)
	trBF := mustPack(t, Config{MaxEntries: 20, Accountant: cBF}, pts)
	var naDF, naBF int64
	for trial := 0; trial < 30; trial++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		cDF.Reset()
		cBF.Reset()
		trDF.Reader(nil).nearestDF(q, 1)
		trBF.Reader(nil).NearestBF(q, 1)
		naDF += cDF.Physical()
		naBF += cBF.Physical()
	}
	if naBF > naDF {
		t.Fatalf("BF accessed %d nodes, DF %d — BF should not exceed DF", naBF, naDF)
	}
}

func TestNodeAccessCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c := pagestore.NewAccountant(0)
	tr := mustPack(t, Config{MaxEntries: 8, Accountant: c}, randPoints(rng, 500, 100))
	c.Reset()
	var tk pagestore.CostTracker
	tr.Reader(&tk).NearestBF(geom.Point{50, 50}, 1)
	if c.Physical() < int64(tr.Height()) {
		t.Fatalf("NN accessed %d nodes, below tree height %d", c.Physical(), tr.Height())
	}
	if tk.Physical != c.Physical() {
		t.Fatalf("per-query tracker %d != aggregate %d", tk.Physical, c.Physical())
	}
	got := c.Physical()
	c.Reset()
	tr.Reader(nil).NearestBF(geom.Point{50, 50}, 1)
	if c.Physical() != got {
		t.Fatalf("repeat query cost changed: %d vs %d", c.Physical(), got)
	}
}

func TestLRUBufferReducesPhysicalAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := pagestore.NewAccountant(1000)
	tr := mustPack(t, Config{MaxEntries: 8, Accountant: c}, randPoints(rng, 500, 100))
	c.ResetAll()
	tr.Reader(nil).NearestBF(geom.Point{50, 50}, 1)
	cold := c.Physical()
	c.Reset() // keep buffer warm
	tr.Reader(nil).NearestBF(geom.Point{50, 50}, 1)
	if c.Physical() != 0 {
		t.Fatalf("warm repeat query paid %d physical reads", c.Physical())
	}
	if cold == 0 {
		t.Fatal("cold query free")
	}
}

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := mustPack(t, Config{MaxEntries: 10}, randPoints(rng, 1000, 100))
	s := computeStats(tr)
	if s.Size != 1000 || s.Height != tr.Height() || s.Leaves == 0 || s.Nodes < s.Leaves {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgFill <= 0.3 || s.AvgFill > 1.0 {
		t.Fatalf("implausible fill %v", s.AvgFill)
	}
}

func TestHigherDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := make([]geom.Point, 400)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	tr := mustPack(t, Config{Dim: 4, MaxEntries: 8}, pts)
	if err := tr.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := geom.Point{0.5, 0.5, 0.5, 0.5}
	want := bruteKNN(pts, q, 5)
	got := tr.Reader(nil).NearestBF(q, 5)
	for i := range got {
		if !almostEq(got[i].Dist, want[i]) {
			t.Fatalf("4-D NN rank %d: %v vs %v", i, got[i].Dist, want[i])
		}
	}
}
