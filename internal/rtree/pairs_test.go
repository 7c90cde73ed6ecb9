package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
)

func TestClosestPairIteratorOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	ps := randPoints(rng, 150, 100)
	qs := randPoints(rng, 120, 100)
	tp := mustTree(t, Config{MaxEntries: 6})
	tq := mustTree(t, Config{MaxEntries: 6})
	insertAll(t, tp, ps)
	insertAll(t, tq, qs)

	want := make([]float64, 0, len(ps)*len(qs))
	for _, p := range ps {
		for _, q := range qs {
			want = append(want, geom.Dist(p, q))
		}
	}
	sort.Float64s(want)

	it, err := NewClosestPairIterator(tp.Pack().Reader(nil), tq.Pack().Reader(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(want); i++ {
		pair, ok := it.Next()
		if !ok {
			t.Fatalf("iterator exhausted at %d of %d", i, len(want))
		}
		if !almostEq(pair.Dist, want[i]) {
			t.Fatalf("pair %d: dist %v, want %v", i, pair.Dist, want[i])
		}
		if !almostEq(geom.Dist(pair.P.Point, pair.Q.Point), pair.Dist) {
			t.Fatalf("pair %d: reported dist inconsistent with points", i)
		}
	}
	if _, ok := it.Next(); ok {
		t.Fatal("iterator yielded more than |P|·|Q| pairs")
	}
}

func TestClosestPairFirstResult(t *testing.T) {
	tp := mustTree(t, Config{MaxEntries: 4})
	tq := mustTree(t, Config{MaxEntries: 4})
	tp.Insert(geom.Point{0, 0}, 1)
	tp.Insert(geom.Point{10, 10}, 2)
	tq.Insert(geom.Point{0, 1}, 3)
	tq.Insert(geom.Point{50, 50}, 4)
	it, err := NewClosestPairIterator(tp.Pack().Reader(nil), tq.Pack().Reader(nil))
	if err != nil {
		t.Fatal(err)
	}
	pair, ok := it.Next()
	if !ok || pair.P.ID != 1 || pair.Q.ID != 3 || !almostEq(pair.Dist, 1) {
		t.Fatalf("first pair = %+v", pair)
	}
}

func TestClosestPairEmptyTree(t *testing.T) {
	tp := mustTree(t, Config{})
	tq := mustTree(t, Config{})
	tq.Insert(geom.Point{1, 1}, 1)
	it, err := NewClosestPairIterator(tp.Pack().Reader(nil), tq.Pack().Reader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); ok {
		t.Fatal("pairs from an empty tree")
	}
}

func TestClosestPairDimensionMismatch(t *testing.T) {
	tp := mustTree(t, Config{Dim: 2})
	tq := mustTree(t, Config{Dim: 3})
	if _, err := NewClosestPairIterator(tp.Pack().Reader(nil), tq.Pack().Reader(nil)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestClosestPairPeekAndHeapStats(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tp := mustTree(t, Config{MaxEntries: 6})
	tq := mustTree(t, Config{MaxEntries: 6})
	insertAll(t, tp, randPoints(rng, 80, 50))
	insertAll(t, tq, randPoints(rng, 80, 50))
	it, _ := NewClosestPairIterator(tp.Pack().Reader(nil), tq.Pack().Reader(nil))
	last := -1.0
	for i := 0; i < 100; i++ {
		if lb, ok := it.PeekDist(); ok && lb < last-1e-9 {
			t.Fatalf("PeekDist %v below last pair %v", lb, last)
		}
		pair, ok := it.Next()
		if !ok {
			break
		}
		last = pair.Dist
	}
	if it.HeapMax() < it.HeapLen() || it.HeapMax() == 0 {
		t.Fatalf("heap stats: max %d, len %d", it.HeapMax(), it.HeapLen())
	}
}

func TestClosestPairChargesBothCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	tp := mustTree(t, Config{MaxEntries: 6})
	tq := mustTree(t, Config{MaxEntries: 6})
	insertAll(t, tp, randPoints(rng, 300, 100))
	insertAll(t, tq, randPoints(rng, 300, 100))
	tp.Accountant().Reset()
	tq.Accountant().Reset()
	var tk pagestore.CostTracker
	it, _ := NewClosestPairIterator(tp.Pack().Reader(&tk), tq.Pack().Reader(&tk))
	for i := 0; i < 50; i++ {
		it.Next()
	}
	if tp.Accountant().Physical() == 0 || tq.Accountant().Physical() == 0 {
		t.Fatalf("accountants: P=%d Q=%d", tp.Accountant().Physical(), tq.Accountant().Physical())
	}
	if tk.Physical != tp.Accountant().Physical()+tq.Accountant().Physical() {
		t.Fatalf("shared tracker %d != P+Q aggregate %d",
			tk.Physical, tp.Accountant().Physical()+tq.Accountant().Physical())
	}
}
