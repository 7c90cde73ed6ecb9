// Edge-case tests for the query surface's corners: the DiskAuto
// algorithm crossover, a NewIndex before and after the first read that
// packs it, empty indexes, and query groups larger than the data set.
package gnn_test

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gnn"
)

// TestAutoAlgorithmCrossover pins the DiskAuto resolution on both sides
// of the 8-block crossover and at it: the block count decides, not the
// number of points.
func TestAutoAlgorithmCrossover(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		points, blockPoints, blocks int
		want                        gnn.DiskAlgorithm
	}{
		{50, 100, 1, gnn.DiskFMQM},
		{800, 100, 8, gnn.DiskFMQM},
		{801, 100, 9, gnn.DiskFMBM},
		{296, 37, 8, gnn.DiskFMQM},
		{297, 37, 9, gnn.DiskFMBM},
	} {
		qs, err := gnn.NewQuerySet(randGroup(rng, tc.points), gnn.QuerySetConfig{BlockPoints: tc.blockPoints})
		if err != nil {
			t.Fatal(err)
		}
		if qs.Blocks() != tc.blocks || qs.AutoAlgorithm() != tc.want {
			t.Fatalf("%d points at %d a block: %d blocks resolved to %v, want %d → %v",
				tc.points, tc.blockPoints, qs.Blocks(), qs.AutoAlgorithm(), tc.blocks, tc.want)
		}
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

// TestNewIndexFreezesAtFirstRead locks the NewIndex contract at the
// corners: an empty bulk-loaded index answers every read path with no
// results; a NewIndex buffers its inserts and deletes until its first
// read, which packs the surviving points — answers, points, ids and
// Cost then equal BuildIndex's over those points in insertion order, for
// every memory-resident algorithm — and sends later writes through the
// overlay, where the disk family refuses pending mutations. Concurrent
// first reads race under -race.
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
	fresh, err := gnn.NewIndex(gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := fresh.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A duplicate of point 20 comes and goes, points 7 and 150 go, and a
	// delete of an absent point and a 3-D insert change nothing: the
	// survivors keep their insertion order.
	if err := fresh.Insert(pts[20], 20); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{20, 7, 150} {
		if !fresh.Delete(pts[i], int64(i)) {
			t.Fatalf("delete of buffered point %d failed", i)
		}
	}
	if fresh.Delete(pts[7], 7) || fresh.Delete(gnn.Point{-1, -1}, 0) {
		t.Fatal("delete of an absent point reported true")
	}
	if err := fresh.Insert(gnn.Point{1, 2, 3}, 0); err == nil {
		t.Fatal("3-D point accepted by a 2-D index")
	}
	var live []gnn.Point
	var ids []int64
	for i, p := range pts {
		if i != 7 && i != 150 {
			live, ids = append(live, p), append(ids, int64(i))
		}
	}
	built, err := gnn.BuildIndex(live, ids, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.Packed || st.Height != 0 || st.Nodes != 0 || st.Points != len(live) {
		t.Fatalf("Stats before the first read: %+v", st)
	}
	// Concurrent first reads: exactly one packs, all answer as the bulk
	// load does, node accesses included.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(algo gnn.Algorithm) {
			defer wg.Done()
			got, gc, err := fresh.GroupNNWithCost(group, gnn.WithAlgorithm(algo), gnn.WithK(5))
			want, wc, werr := built.GroupNNWithCost(group, gnn.WithAlgorithm(algo), gnn.WithK(5))
			if err != nil || werr != nil {
				t.Errorf("%v: %v / %v", algo, err, werr)
				return
			}
			if gc != wc {
				t.Errorf("%v: cost %+v, bulk load %+v", algo, gc, wc)
			}
			if len(got) != len(want) {
				t.Errorf("%v: %d results, bulk load %d", algo, len(got), len(want))
				return
			}
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist || !slices.Equal(got[i].Point, want[i].Point) {
					t.Errorf("%v rank %d: %+v, bulk load %+v", algo, i, got[i], want[i])
				}
			}
		}(algos[w])
	}
	wg.Wait()
	if fresh.Cost() != built.Cost() {
		t.Fatalf("index-wide cost %+v, bulk load %+v", fresh.Cost(), built.Cost())
	}
	if st, bst := fresh.Stats(), built.Stats(); st.Height != bst.Height || st.Nodes != bst.Nodes || st.ArenaBytes != bst.ArenaBytes {
		t.Fatalf("packed shape %+v, bulk load %+v", st, bst)
	}
	if !fresh.Stats().Packed {
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

// TestCompactPacksNewIndex: Compact, and StartCompactor, on a NewIndex
// before its first read pack its buffered points as that read would, and
// run no compaction cycle. The index then reports the Stats of a
// BuildIndex over the same points in insertion order, and answers every
// memory-resident algorithm with its results and Cost.
func TestCompactPacksNewIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts, group := randGroup(rng, 700), randGroup(rng, 5)
	cfg := gnn.IndexConfig{NodeCapacity: 16}
	for _, tc := range []struct {
		name string
		pack func(*gnn.Index) error
	}{
		{"Compact", (*gnn.Index).Compact},
		{"StartCompactor", func(ix *gnn.Index) error {
			return ix.StartCompactor(gnn.CompactorConfig{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := gnn.NewIndex(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.StopCompactor()
			for i, p := range pts {
				if err := ix.Insert(p, int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.pack(ix); err != nil {
				t.Fatalf("%s on a never-read NewIndex: %v", tc.name, err)
			}
			built, err := gnn.BuildIndex(pts, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st, bst := ix.Stats(), built.Stats(); st != bst || !st.Packed {
				t.Fatalf("Stats %+v, bulk load %+v", st, bst)
			}
			for _, algo := range []gnn.Algorithm{gnn.AlgoMBM, gnn.AlgoMQM, gnn.AlgoSPM, gnn.AlgoBruteForce} {
				got, gc, err := ix.GroupNNWithCost(group, gnn.WithAlgorithm(algo), gnn.WithK(5))
				want, wc, werr := built.GroupNNWithCost(group, gnn.WithAlgorithm(algo), gnn.WithK(5))
				if err != nil || werr != nil {
					t.Fatalf("%v: %v / %v", algo, err, werr)
				}
				if gc != wc || len(got) != len(want) {
					t.Fatalf("%v: %d results at %+v, bulk load %d at %+v", algo, len(got), gc, len(want), wc)
				}
				for i := range want {
					if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist || !slices.Equal(got[i].Point, want[i].Point) {
						t.Fatalf("%v rank %d: %+v, bulk load %+v", algo, i, got[i], want[i])
					}
				}
			}
			if ix.Cost() != built.Cost() {
				t.Fatalf("index-wide cost %+v, bulk load %+v", ix.Cost(), built.Cost())
			}
			if st, bst := ix.Stats(), built.Stats(); st != bst {
				t.Fatalf("Stats after the queries %+v, bulk load %+v", st, bst)
			}
		})
	}
}
