package rtree

import (
	"math"
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
	tp := mustPack(t, Config{MaxEntries: 6}, ps)
	tq := mustPack(t, Config{MaxEntries: 6}, qs)

	want := make([]float64, 0, len(ps)*len(qs))
	for _, p := range ps {
		for _, q := range qs {
			want = append(want, geom.Dist(p, q))
		}
	}
	sort.Float64s(want)

	it, err := NewClosestPairIterator(tp.Reader(nil), tq.Reader(nil))
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
	tp, err := bulkLoadSTR(Config{MaxEntries: 4}, []geom.Point{{0, 0}, {10, 10}}, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	tq, err := bulkLoadSTR(Config{MaxEntries: 4}, []geom.Point{{0, 1}, {50, 50}}, []int64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewClosestPairIterator(tp.Reader(nil), tq.Reader(nil))
	if err != nil {
		t.Fatal(err)
	}
	pair, ok := it.Next()
	if !ok || pair.P.ID != 1 || pair.Q.ID != 3 || !almostEq(pair.Dist, 1) {
		t.Fatalf("first pair = %+v", pair)
	}
}

func TestClosestPairEmptyTree(t *testing.T) {
	tp := mustPack(t, Config{}, nil)
	tq := mustPack(t, Config{}, []geom.Point{{1, 1}})
	it, err := NewClosestPairIterator(tp.Reader(nil), tq.Reader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); ok {
		t.Fatal("pairs from an empty tree")
	}
}

func TestClosestPairDimensionMismatch(t *testing.T) {
	tp := mustPack(t, Config{Dim: 2}, nil)
	tq := mustPack(t, Config{Dim: 3}, nil)
	if _, err := NewClosestPairIterator(tp.Reader(nil), tq.Reader(nil)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// peekDist bounds the distance of it's next pair from below: the square
// root of its heap's least key.
func peekDist(it *PairIterator) (float64, bool) {
	d, ok := it.heap.MinPriority()
	return math.Sqrt(d), ok
}

func TestClosestPairPeekAndHeapStats(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tp := mustPack(t, Config{MaxEntries: 6}, randPoints(rng, 80, 50))
	tq := mustPack(t, Config{MaxEntries: 6}, randPoints(rng, 80, 50))
	it, _ := NewClosestPairIterator(tp.Reader(nil), tq.Reader(nil))
	last := -1.0
	for i := 0; i < 100; i++ {
		if lb, ok := peekDist(it); ok && lb < last-1e-9 {
			t.Fatalf("PeekDist %v below last pair %v", lb, last)
		}
		pair, ok := it.Next()
		if !ok {
			break
		}
		last = pair.Dist
	}
	if it.HeapMax() < it.heap.Len() || it.HeapMax() == 0 {
		t.Fatalf("heap stats: max %d, len %d", it.HeapMax(), it.heap.Len())
	}
}

func TestClosestPairChargesBothCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	tp := mustPack(t, Config{MaxEntries: 6}, randPoints(rng, 300, 100))
	tq := mustPack(t, Config{MaxEntries: 6}, randPoints(rng, 300, 100))
	tp.Tree().Accountant().Reset()
	tq.Tree().Accountant().Reset()
	var tk pagestore.CostTracker
	it, _ := NewClosestPairIterator(tp.Reader(&tk), tq.Reader(&tk))
	for i := 0; i < 50; i++ {
		it.Next()
	}
	if tp.Tree().Accountant().Physical() == 0 || tq.Tree().Accountant().Physical() == 0 {
		t.Fatalf("accountants: P=%d Q=%d", tp.Tree().Accountant().Physical(), tq.Tree().Accountant().Physical())
	}
	if tk.Physical != tp.Tree().Accountant().Physical()+tq.Tree().Accountant().Physical() {
		t.Fatalf("shared tracker %d != P+Q aggregate %d",
			tk.Physical, tp.Tree().Accountant().Physical()+tq.Tree().Accountant().Physical())
	}
}
