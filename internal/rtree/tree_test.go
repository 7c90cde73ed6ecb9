package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
)

func mustTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randPoints(rng *rand.Rand, n int, span float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * span, rng.Float64() * span}
	}
	return pts
}

func insertAll(t *testing.T, tr *Tree, pts []geom.Point) {
	t.Helper()
	for i, p := range pts {
		if err := tr.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Dim: -1},
		{MaxEntries: 3},
		{MaxEntries: 10, MinEntries: 6}, // > M/2
		{ReinsertFraction: 0.6},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	tr := mustTree(t, Config{})
	if tr.cfg.MaxEntries != DefaultMaxEntries || tr.cfg.MinEntries != 20 || tr.Dim() != 2 {
		t.Errorf("defaults = M%d m%d d%d", tr.cfg.MaxEntries, tr.cfg.MinEntries, tr.Dim())
	}
}

func TestInsertDimensionMismatch(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2})
	if err := tr.Insert(geom.Point{1, 2, 3}, 0); err == nil {
		t.Fatal("3-D point accepted by 2-D tree")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := mustTree(t, Config{})
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("Len/Height = %d/%d", tr.Len(), tr.Height())
	}
	if _, ok := tr.Bounds(); ok {
		t.Fatal("empty tree has bounds")
	}
	if nn := tr.Pack().Reader(nil).NearestBF(geom.Point{0, 0}, 3); nn != nil {
		t.Fatal("NN on empty tree returned results")
	}
	if nn := tr.Pack().Reader(nil).nearestDF(geom.Point{0, 0}, 3); nn != nil {
		t.Fatal("DF NN on empty tree returned results")
	}
	tr.Pack().Reader(nil).Search(geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1}), func(geom.Point, int64) bool {
		t.Fatal("search on empty tree yielded a point")
		return true
	})
	if tr.Delete(geom.Point{0, 0}, 0) {
		t.Fatal("Delete on empty tree returned true")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertGrowAndInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := mustTree(t, Config{MaxEntries: 8})
	pts := randPoints(rng, 2000, 1000)
	for i, p := range pts {
		if err := tr.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
		if i%251 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if tr.Len() != len(pts) {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Height() < 3 {
		t.Fatalf("Height = %d, expected a deeper tree", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every inserted point must be findable by an exact-range search.
	for i, p := range pts[:100] {
		found := false
		tr.Pack().Reader(nil).Search(geom.RectFromPoint(p), func(q geom.Point, id int64) bool {
			if id == int64(i) && q.Equal(p) {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("point %d lost", i)
		}
	}
}

func TestInsertWithoutReinsert(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := mustTree(t, Config{MaxEntries: 8, ReinsertFraction: -1})
	pts := randPoints(rng, 1000, 100)
	insertAll(t, tr, pts)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr := mustTree(t, Config{MaxEntries: 4})
	p := geom.Point{5, 5}
	for i := 0; i < 50; i++ {
		if err := tr.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	n := 0
	tr.Pack().Reader(nil).Search(geom.RectFromPoint(p), func(geom.Point, int64) bool { n++; return true })
	if n != 50 {
		t.Fatalf("found %d duplicates, want 50", n)
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 1500, 1000)
	tr := mustTree(t, Config{MaxEntries: 10})
	insertAll(t, tr, pts)
	for trial := 0; trial < 50; trial++ {
		r := geom.NewRect(
			geom.Point{rng.Float64() * 1000, rng.Float64() * 1000},
			geom.Point{rng.Float64() * 1000, rng.Float64() * 1000})
		want := map[int64]bool{}
		for i, p := range pts {
			if r.ContainsPoint(p) {
				want[int64(i)] = true
			}
		}
		got := map[int64]bool{}
		tr.Pack().Reader(nil).Search(r, func(_ geom.Point, id int64) bool { got[id] = true; return true })
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing id %d", trial, id)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 500, 100)
	tr := mustTree(t, Config{MaxEntries: 8})
	insertAll(t, tr, pts)
	count := 0
	tr.Pack().Reader(nil).Search(geom.NewRect(geom.Point{0, 0}, geom.Point{100, 100}),
		func(geom.Point, int64) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop visited %d points", count)
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
	tr := mustTree(t, Config{MaxEntries: 10})
	insertAll(t, tr, pts)
	rd := tr.Pack().Reader(nil)
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
	tr := mustTree(t, Config{MaxEntries: 8})
	insertAll(t, tr, pts)
	q := geom.Point{250, 250}
	want := bruteKNN(pts, q, len(pts))
	it := tr.Pack().Reader(nil).NewNNIterator(q)
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
	trDF := mustTree(t, Config{MaxEntries: 20, Accountant: cDF})
	trBF := mustTree(t, Config{MaxEntries: 20, Accountant: cBF})
	insertAll(t, trDF, pts)
	insertAll(t, trBF, pts)
	var naDF, naBF int64
	for trial := 0; trial < 30; trial++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		cDF.Reset()
		cBF.Reset()
		trDF.Pack().Reader(nil).nearestDF(q, 1)
		trBF.Pack().Reader(nil).NearestBF(q, 1)
		naDF += cDF.Physical()
		naBF += cBF.Physical()
	}
	if naBF > naDF {
		t.Fatalf("BF accessed %d nodes, DF %d — BF should not exceed DF", naBF, naDF)
	}
}

func TestDeleteAndCondense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randPoints(rng, 800, 300)
	tr := mustTree(t, Config{MaxEntries: 8})
	insertAll(t, tr, pts)

	perm := rng.Perm(len(pts))
	for i, idx := range perm {
		if !tr.Delete(pts[idx], int64(idx)) {
			t.Fatalf("Delete %d failed", idx)
		}
		if tr.Len() != len(pts)-i-1 {
			t.Fatalf("Len = %d after %d deletes", tr.Len(), i+1)
		}
		if i%97 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after delete %d: %v", i, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteNonexistent(t *testing.T) {
	tr := mustTree(t, Config{MaxEntries: 4})
	tr.Insert(geom.Point{1, 1}, 1)
	if tr.Delete(geom.Point{2, 2}, 1) {
		t.Fatal("deleted absent point")
	}
	if tr.Delete(geom.Point{1, 1}, 99) {
		t.Fatal("deleted wrong id")
	}
	if !tr.Delete(geom.Point{1, 1}, 1) {
		t.Fatal("failed to delete existing point")
	}
}

func TestMixedInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := mustTree(t, Config{MaxEntries: 6})
	type rec struct {
		p  geom.Point
		id int64
	}
	var live []rec
	nextID := int64(0)
	for step := 0; step < 4000; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			p := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
			if err := tr.Insert(p, nextID); err != nil {
				t.Fatal(err)
			}
			live = append(live, rec{p, nextID})
			nextID++
		} else {
			i := rng.Intn(len(live))
			if !tr.Delete(live[i].p, live[i].id) {
				t.Fatalf("step %d: delete failed", step)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%499 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if tr.Len() != len(live) {
				t.Fatalf("step %d: Len %d vs %d live", step, tr.Len(), len(live))
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Survivors must all be findable.
	for _, r := range live {
		found := false
		tr.Pack().Reader(nil).Search(geom.RectFromPoint(r.p), func(_ geom.Point, id int64) bool {
			if id == r.id {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("live point %d lost", r.id)
		}
	}
}

func TestNodeAccessCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c := pagestore.NewAccountant(0)
	tr := mustTree(t, Config{MaxEntries: 8, Accountant: c})
	insertAll(t, tr, randPoints(rng, 500, 100))
	c.Reset()
	var tk pagestore.CostTracker
	tr.Pack().Reader(&tk).NearestBF(geom.Point{50, 50}, 1)
	if c.Physical() < int64(tr.Height()) {
		t.Fatalf("NN accessed %d nodes, below tree height %d", c.Physical(), tr.Height())
	}
	if tk.Physical != c.Physical() {
		t.Fatalf("per-query tracker %d != aggregate %d", tk.Physical, c.Physical())
	}
	got := c.Physical()
	c.Reset()
	tr.Pack().Reader(nil).NearestBF(geom.Point{50, 50}, 1)
	if c.Physical() != got {
		t.Fatalf("repeat query cost changed: %d vs %d", c.Physical(), got)
	}
}

func TestLRUBufferReducesPhysicalAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := pagestore.NewAccountant(1000)
	tr := mustTree(t, Config{MaxEntries: 8, Accountant: c})
	insertAll(t, tr, randPoints(rng, 500, 100))
	c.ResetAll()
	tr.Pack().Reader(nil).NearestBF(geom.Point{50, 50}, 1)
	cold := c.Physical()
	c.Reset() // keep buffer warm
	tr.Pack().Reader(nil).NearestBF(geom.Point{50, 50}, 1)
	if c.Physical() != 0 {
		t.Fatalf("warm repeat query paid %d physical reads", c.Physical())
	}
	if cold == 0 {
		t.Fatal("cold query free")
	}
}

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := mustTree(t, Config{MaxEntries: 10})
	insertAll(t, tr, randPoints(rng, 1000, 100))
	s := computeStats(tr.Pack())
	if s.Size != 1000 || s.Height != tr.Height() || s.Leaves == 0 || s.Nodes < s.Leaves {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgFill <= 0.3 || s.AvgFill > 1.0 {
		t.Fatalf("implausible fill %v", s.AvgFill)
	}
}

func TestHigherDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := mustTree(t, Config{Dim: 4, MaxEntries: 8})
	pts := make([]geom.Point, 400)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	insertAll(t, tr, pts)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := geom.Point{0.5, 0.5, 0.5, 0.5}
	want := bruteKNN(pts, q, 5)
	got := tr.Pack().Reader(nil).NearestBF(q, 5)
	for i := range got {
		if !almostEq(got[i].Dist, want[i]) {
			t.Fatalf("4-D NN rank %d: %v vs %v", i, got[i].Dist, want[i])
		}
	}
}
