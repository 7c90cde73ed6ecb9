// Edge-case tests for the query surface's corners: the DiskAuto
// algorithm crossover, a NewIndex before and after the first read that
// packs it, empty indexes, and query groups larger than the data set.
package gnn_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"gnn"
)

// TestAutoAlgorithmCrossover pins the DiskAuto resolution on both sides
// of the block threshold, at the exact threshold, with a custom
// threshold, and with the documented negative override.
func TestAutoAlgorithmCrossover(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	mk := func(points, blockPoints, threshold int) *gnn.QuerySet {
		t.Helper()
		qs, err := gnn.NewQuerySet(randGroup(rng, points), gnn.QuerySetConfig{
			BlockPoints: blockPoints, AutoBlockThreshold: threshold,
		})
		if err != nil {
			t.Fatal(err)
		}
		return qs
	}

	// Default threshold (8): 1 block and 8 blocks resolve to F-MQM, 9 to
	// F-MBM.
	if got := mk(50, 100, 0).AutoAlgorithm(); got != gnn.DiskFMQM {
		t.Fatalf("1 block resolved to %v", got)
	}
	if qs := mk(800, 100, 0); qs.Blocks() != 8 || qs.AutoAlgorithm() != gnn.DiskFMQM {
		t.Fatalf("%d blocks resolved to %v, want 8 → F-MQM", qs.Blocks(), qs.AutoAlgorithm())
	}
	if qs := mk(801, 100, 0); qs.Blocks() != 9 || qs.AutoAlgorithm() != gnn.DiskFMBM {
		t.Fatalf("%d blocks resolved to %v, want 9 → F-MBM", qs.Blocks(), qs.AutoAlgorithm())
	}
	// Custom threshold moves the crossover.
	if got := mk(300, 100, 2).AutoAlgorithm(); got != gnn.DiskFMBM {
		t.Fatalf("3 blocks over threshold 2 resolved to %v", got)
	}
	if got := mk(200, 100, 2).AutoAlgorithm(); got != gnn.DiskFMQM {
		t.Fatalf("2 blocks at threshold 2 resolved to %v", got)
	}
	// Negative threshold forces F-MBM for every set.
	if got := mk(10, 100, -1).AutoAlgorithm(); got != gnn.DiskFMBM {
		t.Fatalf("negative threshold resolved to %v", got)
	}

	// An empty query set is rejected at construction (AutoAlgorithm can
	// never see zero blocks).
	if _, err := gnn.NewQuerySet(nil, gnn.QuerySetConfig{}); !errors.Is(err, gnn.ErrEmptyQuery) {
		t.Fatalf("empty query set: %v, want ErrEmptyQuery", err)
	}
}

func randGroup(rng *rand.Rand, n int) []gnn.Point {
	out := make([]gnn.Point, n)
	for i := range out {
		out[i] = gnn.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	return out
}

// TestDiskQueriesEmptyIndex runs the whole disk-resident family against
// empty indexes — bulk-loaded (packed snapshot of nothing) and
// incrementally built (no snapshot) — expecting clean empty answers, no
// panics, under every algorithm including the auto crossover.
func TestDiskQueriesEmptyIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	qset, err := gnn.NewQuerySet(randGroup(rng, 2500), gnn.QuerySetConfig{BlockPoints: 100})
	if err != nil {
		t.Fatal(err)
	}
	built, err := gnn.BuildIndex(nil, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := gnn.NewIndex(gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*gnn.Index{"bulk-loaded": built, "incremental": fresh} {
		for _, algo := range []gnn.DiskAlgorithm{gnn.DiskAuto, gnn.DiskFMQM, gnn.DiskFMBM} {
			res, err := ix.GroupNNFromSet(qset, algo, gnn.WithK(3))
			if err != nil {
				t.Fatalf("%s/%v on empty index: %v", name, algo, err)
			}
			if len(res) != 0 {
				t.Fatalf("%s/%v on empty index returned %v", name, algo, res)
			}
		}
	}
	// GCP over two indexes, one empty.
	qix, err := gnn.BuildIndex(randGroup(rng, 200), nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := built.GroupNNClosestPairs(qix, 0); err != nil || len(res) != 0 {
		t.Fatalf("GCP with empty data index: %v, %v", res, err)
	}
	if res, err := qix.GroupNNClosestPairs(built, 0); err == nil && len(res) != 0 {
		t.Fatalf("GCP with empty query index returned %v", res)
	}
}

// TestQuerySetLargerThanDataset covers the inverted-size regime the
// paper never measures: the disk-resident query set dwarfs the data set,
// and k exceeds the data set size.
func TestQuerySetLargerThanDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pts := randGroup(rng, 5)
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	qset, err := gnn.NewQuerySet(randGroup(rng, 3000), gnn.QuerySetConfig{BlockPoints: 100})
	if err != nil {
		t.Fatal(err)
	}
	var want []gnn.Result
	for _, algo := range []gnn.DiskAlgorithm{gnn.DiskFMQM, gnn.DiskFMBM, gnn.DiskAuto} {
		res, err := ix.GroupNNFromSet(qset, algo, gnn.WithK(9))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(res) != len(pts) {
			t.Fatalf("%v: k=9 over 5 points returned %d results", algo, len(res))
		}
		if want == nil {
			want = res
			continue
		}
		for i := range want {
			if res[i].ID != want[i].ID {
				t.Fatalf("%v diverged from F-MQM at %d: %+v vs %+v", algo, i, res[i], want[i])
			}
		}
	}

	// Memory-resident group larger than the data set, every algorithm.
	big := randGroup(rng, 200)
	for _, algo := range []gnn.Algorithm{gnn.AlgoMBM, gnn.AlgoMQM, gnn.AlgoSPM, gnn.AlgoBruteForce} {
		res, err := ix.GroupNN(big, gnn.WithAlgorithm(algo), gnn.WithK(9))
		if err != nil {
			t.Fatalf("%v with oversized group: %v", algo, err)
		}
		if len(res) != len(pts) {
			t.Fatalf("%v with oversized group returned %d results", algo, len(res))
		}
	}
}

// TestNewIndexFreezesAtFirstRead locks the builder contract at the
// corners: an empty bulk-loaded index answers every read path with no
// results; a NewIndex stays an insertion builder until its first read,
// which packs it (answers match a bulk load of the same points) and sends
// later writes through the overlay, where the disk family refuses pending
// mutations. Concurrent first reads and writes race under -race.
func TestNewIndexFreezesAtFirstRead(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	group := randGroup(rng, 4)
	algos := []gnn.Algorithm{gnn.AlgoMBM, gnn.AlgoMQM, gnn.AlgoSPM, gnn.AlgoBruteForce}

	empty, err := gnn.BuildIndex(nil, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range algos {
		res, err := empty.GroupNN(group, gnn.WithAlgorithm(algo))
		if err != nil || len(res) != 0 {
			t.Fatalf("%v on empty index: %v, %v", algo, res, err)
		}
	}
	if it, err := empty.GroupNNIterator(group); err != nil {
		t.Fatalf("iterator on empty index: %v", err)
	} else {
		if _, ok := it.Next(); ok {
			t.Fatal("empty iterator yielded")
		}
		it.Close()
	}

	pts := randGroup(rng, 300)
	built, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := gnn.NewIndex(gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := fresh.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if fresh.IsPacked() {
		t.Fatal("NewIndex packed before its first read")
	}
	// Concurrent first reads: exactly one freezes, all answer.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(algo gnn.Algorithm) {
			defer wg.Done()
			got, err := fresh.GroupNN(group, gnn.WithAlgorithm(algo), gnn.WithK(5))
			want, werr := built.GroupNN(group, gnn.WithAlgorithm(algo), gnn.WithK(5))
			if err != nil || werr != nil {
				t.Errorf("%v: %v / %v", algo, err, werr)
				return
			}
			for i := range want {
				if got[i].Dist != want[i].Dist {
					t.Errorf("%v rank %d: %v, bulk load %v", algo, i, got[i].Dist, want[i].Dist)
				}
			}
		}(algos[w])
	}
	wg.Wait()
	if !fresh.IsPacked() {
		t.Fatal("first read did not pack the index")
	}
	if err := fresh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Insert(gnn.Point{1, 1}, 999); err != nil {
		t.Fatal(err)
	}
	if !fresh.Delete(pts[0], 0) {
		t.Fatal("delete of a base point after the freeze failed")
	}
	if st := fresh.Stats(); st.Delta != 1 || st.Tombstones != 1 {
		t.Fatalf("writes after the freeze: delta %d, tombstones %d; want 1, 1", st.Delta, st.Tombstones)
	}
	qset, qerr := gnn.NewQuerySet(randGroup(rng, 50), gnn.QuerySetConfig{})
	if qerr != nil {
		t.Fatal(qerr)
	}
	if _, err := fresh.GroupNNFromSet(qset, gnn.DiskAuto); !errors.Is(err, gnn.ErrPendingMutations) {
		t.Fatalf("mutated: disk query: %v, want ErrPendingMutations", err)
	}
}
