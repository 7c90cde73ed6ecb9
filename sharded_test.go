// Differential suite for the sharded scatter-gather execution: a
// ShardedIndex must return exactly the results of a plain Index over the
// same points — for every algorithm, aggregate, k, layout and scatter
// width — and its reported per-query cost must be exactly the sum of the
// per-shard node accesses (verified against the shard-shared aggregate
// accountant). Run with -race; the concurrent-batch test is written for
// it.
package gnn_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gnn"
)

// clusterPoints generates a deterministic mixed workload: uniform
// background plus dense clusters, the shape that makes sharding
// interesting (queries concentrate, shards prune).
func clusterPoints(rng *rand.Rand, n int, span float64) []gnn.Point {
	pts := make([]gnn.Point, 0, n)
	for len(pts) < n {
		if rng.Intn(3) == 0 { // uniform background
			pts = append(pts, gnn.Point{rng.Float64() * span, rng.Float64() * span})
			continue
		}
		cx, cy := rng.Float64()*span, rng.Float64()*span
		m := 1 + rng.Intn(20)
		for j := 0; j < m && len(pts) < n; j++ {
			pts = append(pts, gnn.Point{cx + rng.NormFloat64()*span/80, cy + rng.NormFloat64()*span/80})
		}
	}
	return pts
}

// queryGroup generates one spatially concentrated query group.
func queryGroup(rng *rand.Rand, n int, span float64) []gnn.Point {
	base := gnn.Point{rng.Float64() * span, rng.Float64() * span}
	qs := make([]gnn.Point, n)
	for i := range qs {
		qs[i] = gnn.Point{base[0] + rng.Float64()*span/8, base[1] + rng.Float64()*span/8}
	}
	return qs
}

// sameResults fails unless two GNN answers are equivalent: bit-identical
// ascending distance sequences, and identical ID sets within every
// interior run of equal distances (executions may order exact ties
// differently). The final run is exempt from the ID check: it is the one
// run k can truncate, where a tie straddling the boundary legitimately
// keeps a different tied representative per execution — the documented
// latitude of both the sharded merge and a single traversal's
// first-come tie-breaking. Distinct distances pin IDs everywhere.
func sameResults(t *testing.T, name string, want, got []gnn.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results vs %d\nwant: %v\ngot:  %v", name, len(want), len(got), want, got)
	}
	for i := range want {
		if want[i].Dist != got[i].Dist {
			t.Fatalf("%s: distance diverged at rank %d: %v vs %v\nwant: %v\ngot:  %v",
				name, i, want[i].Dist, got[i].Dist, want, got)
		}
	}
	for i := 0; i < len(want); {
		j := i + 1
		for j < len(want) && want[j].Dist == want[i].Dist {
			j++
		}
		if j == len(want) {
			break // boundary run: representatives of an exact tie may differ
		}
		ws, gs := map[int64]bool{}, map[int64]bool{}
		for _, r := range want[i:j] {
			ws[r.ID] = true
		}
		for _, r := range got[i:j] {
			gs[r.ID] = true
		}
		if !reflect.DeepEqual(ws, gs) {
			t.Fatalf("%s: IDs diverged in the tie run at ranks [%d,%d)\nwant: %v\ngot:  %v",
				name, i, j, want, got)
		}
		i = j
	}
}

// buildBoth builds a plain and a sharded index over the same points.
func buildBoth(t testing.TB, pts []gnn.Point, shards int, cfg gnn.IndexConfig) (*gnn.Index, *gnn.ShardedIndex) {
	t.Helper()
	ix, err := gnn.BuildIndex(pts, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := gnn.BuildShardedIndex(pts, nil, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sx.NumShards() != shards || sx.Len() != len(pts) {
		t.Fatalf("sharded index: %d shards over %d points, want %d over %d",
			sx.NumShards(), sx.Len(), shards, len(pts))
	}
	if err := sx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return ix, sx
}

// TestShardedEquivalence is the core differential: identical result sets
// and ordering for S ∈ {1, 2, 7} across every algorithm, aggregate, k
// and several scatter widths, plus the cost-sum invariant —
// the reported per-query cost (the sum of per-shard trackers) must equal
// exactly what the shard-shared accountant accrued for the query.
func TestShardedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := clusterPoints(rng, 4000, 1000)

	for _, shards := range []int{1, 2, 7} {
		ix, sx := buildBoth(t, pts, shards, gnn.IndexConfig{NodeCapacity: 16})
		sizes := sx.ShardSizes()
		total, min, max := 0, sx.Len(), 0
		for _, n := range sizes {
			total += n
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if total != len(pts) || max-min > 1 {
			t.Fatalf("S=%d: unbalanced partition %v", shards, sizes)
		}

		for trial := 0; trial < 10; trial++ {
			qs := queryGroup(rng, []int{1, 4, 16, 64}[trial%4], 1000)
			k := []int{1, 5, 16}[trial%3]
			var weights []float64
			if trial%3 == 2 {
				weights = make([]float64, len(qs))
				for i := range weights {
					weights[i] = 0.5 + rng.Float64()*3
				}
			}
			for _, algo := range []gnn.Algorithm{gnn.AlgoMBM, gnn.AlgoMQM, gnn.AlgoSPM, gnn.AlgoBruteForce} {
				for _, agg := range []gnn.Aggregate{gnn.SumDist, gnn.MaxDist, gnn.MinDist} {
					if algo == gnn.AlgoSPM && agg != gnn.SumDist {
						continue
					}
					opts := []gnn.QueryOption{
						gnn.WithK(k), gnn.WithAlgorithm(algo), gnn.WithAggregate(agg),
					}
					if weights != nil {
						opts = append(opts, gnn.WithWeights(weights))
					}
					if trial%4 == 3 {
						opts = append(opts, gnn.WithDepthFirst())
					}
					name := fmt.Sprintf("S=%d/trial%d/%v/%v/k=%d", shards, trial, algo, agg, k)
					want, _, err := ix.GroupNNWithCost(qs, opts...)
					if err != nil {
						t.Fatalf("%s (unsharded): %v", name, err)
					}
					for _, width := range []int{0, 1, 3} {
						wopts := opts
						if width > 0 {
							wopts = append(append([]gnn.QueryOption{}, opts...), gnn.WithShards(width))
						}
						sx.ResetCost()
						got, cost, err := sx.GroupNNWithCost(qs, wopts...)
						if err != nil {
							t.Fatalf("%s (sharded, width=%d): %v", name, width, err)
						}
						sameResults(t, fmt.Sprintf("%s/width=%d", name, width), want, got)
						if agg := sx.Cost(); agg != cost {
							t.Fatalf("%s/width=%d: cost-sum invariant broken: reported %+v, accountant %+v",
								name, width, cost, agg)
						}
					}
				}
			}
		}
	}
}

// TestShardedRegionEquivalence covers the constrained-query extension on
// the sharded path (every algorithm).
func TestShardedRegionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := clusterPoints(rng, 2500, 800)
	ix, sx := buildBoth(t, pts, 5, gnn.IndexConfig{NodeCapacity: 16})
	for trial := 0; trial < 6; trial++ {
		qs := queryGroup(rng, 8, 800)
		lo := gnn.Point{rng.Float64() * 500, rng.Float64() * 500}
		hi := gnn.Point{lo[0] + 100 + rng.Float64()*300, lo[1] + 100 + rng.Float64()*300}
		for _, algo := range []gnn.Algorithm{gnn.AlgoMBM, gnn.AlgoMQM, gnn.AlgoSPM, gnn.AlgoBruteForce} {
			name := fmt.Sprintf("trial%d/%v", trial, algo)
			opts := []gnn.QueryOption{gnn.WithK(4), gnn.WithAlgorithm(algo), gnn.WithRegion(lo, hi)}
			want, err := ix.GroupNN(qs, opts...)
			if err != nil {
				t.Fatalf("%s (unsharded): %v", name, err)
			}
			got, err := sx.GroupNN(qs, opts...)
			if err != nil {
				t.Fatalf("%s (sharded): %v", name, err)
			}
			sameResults(t, name, want, got)
		}
	}
}

// TestShardedIteratorEquivalence steps the sharded k-way-merged stream in
// lockstep with the single-tree incremental scan; every emitted neighbor
// must match, and the iterator's running cost must equal what the
// accountant accrued (the cost-sum invariant for streams).
func TestShardedIteratorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := clusterPoints(rng, 3000, 1000)
	ix, sx := buildBoth(t, pts, 7, gnn.IndexConfig{NodeCapacity: 16})
	for _, agg := range []gnn.Aggregate{gnn.SumDist, gnn.MaxDist, gnn.MinDist} {
		qs := queryGroup(rng, 6, 1000)
		di, err := ix.GroupNNIterator(qs, gnn.WithAggregate(agg))
		if err != nil {
			t.Fatal(err)
		}
		sx.ResetCost()
		si, err := sx.GroupNNIterator(qs, gnn.WithAggregate(agg))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			dr, dok := di.Next()
			sr, sok := si.Next()
			if dok != sok {
				t.Fatalf("agg %v: stream length diverged at %d: %v vs %v", agg, i, dok, sok)
			}
			if !dok {
				break
			}
			// Distances must match rank for rank; IDs may permute only
			// within exact ties (both emissions are valid ascending orders).
			if dr.Dist != sr.Dist {
				t.Fatalf("agg %v: stream diverged at %d:\nunsharded: %+v\nsharded:   %+v", agg, i, dr, sr)
			}
		}
		if agg := sx.Cost(); agg != si.Cost() {
			t.Fatalf("iterator cost-sum invariant broken: reported %+v, accountant %+v", si.Cost(), agg)
		}
		di.Close()
		si.Close()
		if _, ok := si.Next(); ok {
			t.Fatal("sharded iterator yielded after Close")
		}
	}
}

// TestShardedBatchConcurrent fires concurrent sharded batches and single
// queries at one ShardedIndex (the -race consumer): every answer must
// match the serial reference and the per-query costs of the whole run
// must sum exactly to the aggregate the accountant accrued.
func TestShardedBatchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := clusterPoints(rng, 3000, 1000)
	ix, sx := buildBoth(t, pts, 7, gnn.IndexConfig{NodeCapacity: 16})

	groups := make([][]gnn.Point, 32)
	for i := range groups {
		groups[i] = queryGroup(rng, 8, 1000)
	}
	want := make([][]gnn.Result, len(groups))
	for i, qs := range groups {
		res, err := ix.GroupNN(qs, gnn.WithK(3))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	sx.ResetCost()
	var mu sync.Mutex
	var total gnn.Cost
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0, 1: // sharded batches (sequential per-query scatter)
				out := sx.GroupNNBatch(groups, gnn.WithK(3), gnn.WithParallelism(3))
				mu.Lock()
				defer mu.Unlock()
				for i, r := range out {
					if r.Err != nil {
						t.Errorf("batch query %d: %v", i, r.Err)
						return
					}
					sameResults(t, fmt.Sprintf("goroutine %d query %d", g, i), want[i], r.Results)
					total.Add(r.Cost)
				}
			default: // single queries with parallel scatter
				for i, qs := range groups {
					res, cost, err := sx.GroupNNWithCost(qs, gnn.WithK(3), gnn.WithShards(4))
					if err != nil {
						t.Errorf("query %d: %v", i, err)
						return
					}
					mu.Lock()
					sameResults(t, fmt.Sprintf("goroutine %d single %d", g, i), want[i], res)
					total.Add(cost)
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if agg := sx.Cost(); agg != total {
		t.Fatalf("concurrent cost-sum invariant broken: Σ per-query %+v, accountant %+v", total, agg)
	}
}

// TestShardedEdgeCases exercises the degenerate shapes: empty index,
// single point, more shards than points, group larger than the data set,
// k larger than the data set.
func TestShardedEdgeCases(t *testing.T) {
	// Empty sharded index: every query answers cleanly with no results.
	sx, err := gnn.BuildShardedIndex(nil, nil, 4, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []gnn.Algorithm{gnn.AlgoMBM, gnn.AlgoMQM, gnn.AlgoSPM, gnn.AlgoBruteForce} {
		res, err := sx.GroupNN([]gnn.Point{{1, 2}, {3, 4}}, gnn.WithAlgorithm(algo), gnn.WithK(3))
		if err != nil {
			t.Fatalf("%v on empty sharded index: %v", algo, err)
		}
		if len(res) != 0 {
			t.Fatalf("%v on empty sharded index returned %v", algo, res)
		}
	}
	it, err := sx.GroupNNIterator([]gnn.Point{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); ok {
		t.Fatal("empty sharded iterator yielded a result")
	}
	it.Close()

	// More shards than points; group and k larger than the data set.
	pts := []gnn.Point{{0, 0}, {10, 10}, {20, 0}}
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sx, err = gnn.BuildShardedIndex(pts, nil, 8, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	group := make([]gnn.Point, 10)
	for i := range group {
		group[i] = gnn.Point{float64(i), float64(10 - i)}
	}
	for _, algo := range []gnn.Algorithm{gnn.AlgoMBM, gnn.AlgoMQM, gnn.AlgoSPM, gnn.AlgoBruteForce} {
		want, err := ix.GroupNN(group, gnn.WithAlgorithm(algo), gnn.WithK(7))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sx.GroupNN(group, gnn.WithAlgorithm(algo), gnn.WithK(7))
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("%v tiny", algo), want, got)
		if len(got) != len(pts) {
			t.Fatalf("%v: k=7 over 3 points returned %d results", algo, len(got))
		}
	}

	// Invalid construction and queries.
	if _, err := gnn.BuildShardedIndex(pts, nil, 0, gnn.IndexConfig{}); err == nil {
		t.Fatal("BuildShardedIndex accepted 0 shards")
	}
	if _, err := sx.GroupNN(nil); err == nil {
		t.Fatal("sharded query accepted an empty group")
	}
	if _, err := sx.GroupNN(group, gnn.WithK(-1)); err == nil {
		t.Fatal("sharded query accepted a negative k")
	}
	if _, err := sx.GroupNN(group, gnn.WithAlgorithm(gnn.AlgoSPM), gnn.WithAggregate(gnn.MaxDist)); err == nil {
		t.Fatal("sharded SPM accepted the MAX aggregate")
	}
}

// TestShardedExactTies pins the documented tie latitude: with distinct
// points at identical coordinates split across shards, sharded and
// unsharded runs must agree on every distance, and any ID divergence must
// stay within the exact tie — a different representative, never a
// different distance or count.
func TestShardedExactTies(t *testing.T) {
	var pts []gnn.Point
	var ids []int64
	// Five duplicate pairs spread over the workspace so the Hilbert cut
	// separates some pairs, plus distinct filler points.
	for i := 0; i < 5; i++ {
		p := gnn.Point{float64(i * 200), float64(i * 150)}
		pts = append(pts, p, gnn.Point{p[0], p[1]})
		ids = append(ids, int64(10+i), int64(20+i))
	}
	for i := 0; i < 40; i++ {
		pts = append(pts, gnn.Point{float64(i*25 + 7), float64(i*17 + 3)})
		ids = append(ids, int64(100+i))
	}
	ix, err := gnn.BuildIndex(pts, ids, gnn.IndexConfig{NodeCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := gnn.BuildShardedIndex(pts, ids, 3, gnn.IndexConfig{NodeCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	distOf := map[int64]gnn.Point{}
	for i, p := range pts {
		distOf[ids[i]] = p
	}
	group := []gnn.Point{{190, 140}, {210, 160}}
	for _, algo := range []gnn.Algorithm{gnn.AlgoMBM, gnn.AlgoMQM, gnn.AlgoSPM, gnn.AlgoBruteForce} {
		for k := 1; k <= 4; k++ {
			want, err := ix.GroupNN(group, gnn.WithAlgorithm(algo), gnn.WithK(k))
			if err != nil {
				t.Fatal(err)
			}
			got, err := sx.GroupNN(group, gnn.WithAlgorithm(algo), gnn.WithK(k))
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("%v/k=%d", algo, k), want, got)
			// Any swapped representative must sit at identical coordinates.
			for i := range want {
				if got[i].ID != want[i].ID {
					wp, gp := distOf[want[i].ID], distOf[got[i].ID]
					if wp[0] != gp[0] || wp[1] != gp[1] {
						t.Fatalf("%v/k=%d: rank %d swapped to a non-tied point: #%d%v vs #%d%v",
							algo, k, i, want[i].ID, wp, got[i].ID, gp)
					}
				}
			}
		}
	}
}

// FuzzShardedEquivalence fuzzes the sharded/unsharded differential across
// dataset size, shard count, group size, k, aggregate, algorithm and
// traversal. Any divergence in results or in the cost-sum invariant
// crashes the target.
func FuzzShardedEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(3), uint8(4), uint8(2), uint8(0), false)
	f.Add(int64(2), uint16(50), uint8(1), uint8(2), uint8(1), uint8(1), true)
	f.Add(int64(3), uint16(900), uint8(9), uint8(16), uint8(5), uint8(2), false)
	f.Add(int64(4), uint16(2), uint8(7), uint8(3), uint8(1), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shards, groupSize, k, algo uint8, df bool) {
		rng := rand.New(rand.NewSource(seed))
		pts := clusterPoints(rng, int(n)%1200+1, 600)
		s := int(shards)%9 + 1
		ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{NodeCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		sx, err := gnn.BuildShardedIndex(pts, nil, s, gnn.IndexConfig{NodeCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		qs := queryGroup(rng, int(groupSize)%24+1, 600)
		al := []gnn.Algorithm{gnn.AlgoMBM, gnn.AlgoMQM, gnn.AlgoSPM, gnn.AlgoBruteForce}[int(algo)%4]
		agg := []gnn.Aggregate{gnn.SumDist, gnn.MaxDist, gnn.MinDist}[int(algo/4)%3]
		if al == gnn.AlgoSPM {
			agg = gnn.SumDist
		}
		opts := []gnn.QueryOption{gnn.WithK(int(k)%12 + 1), gnn.WithAlgorithm(al), gnn.WithAggregate(agg)}
		if df {
			opts = append(opts, gnn.WithDepthFirst())
		}
		want, err := ix.GroupNN(qs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sx.ResetCost()
		got, cost, err := sx.GroupNNWithCost(qs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "fuzz", want, got)
		if agg := sx.Cost(); agg != cost {
			t.Fatalf("cost-sum invariant broken: reported %+v, accountant %+v", cost, agg)
		}
	})
}
