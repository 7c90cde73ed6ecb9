package gnn_test

// Differential suite for the delta-overlay write path: a mutated index
// must answer every query exactly like a freshly built index over the
// same live multiset, and after compaction the equivalence extends to
// Cost and node-access counts bit for bit.

import (
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gnn"
)

// mutationScript applies a deterministic mixed workload to a mutable
// target and mirrors it into a live point list. The script exercises
// every overlay transition: overlay inserts past the fold threshold,
// deletes of base points (tombstones), deletes of overlay points
// (physical removal, both pending and folded), and re-inserts of deleted
// base points (resurrection).
func runMutationScript(t *testing.T, target *gnn.Index, pts []gnn.Point, rng *rand.Rand) ([]gnn.Point, []int64) {
	t.Helper()
	live := make([]gnn.Point, len(pts))
	ids := make([]int64, len(pts))
	for i, p := range pts {
		live[i] = p
		ids[i] = int64(i)
	}
	remove := func(i int) {
		live = append(live[:i], live[i+1:]...)
		ids = append(ids[:i], ids[i+1:]...)
	}
	next := int64(len(pts))
	// 300 overlay inserts: crosses the pending-fold threshold so queries
	// exercise base + delta tree + pending tail simultaneously.
	for i := 0; i < 300; i++ {
		p := gnn.Point{rng.Float64() * 100, rng.Float64() * 100}
		if err := target.Insert(p, next); err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
		ids = append(ids, next)
		next++
	}
	// 40 deletes of original base points — tombstones.
	for i := 0; i < 40; i++ {
		j := rng.Intn(len(pts) - i)
		if !target.Delete(live[j], ids[j]) {
			t.Fatalf("base delete %d failed", i)
		}
		remove(j)
	}
	// 30 deletes of overlay points — physical removal from the folded
	// delta (low indexes) and the pending tail (high indexes).
	for i := 0; i < 30; i++ {
		j := len(live) - 1 - rng.Intn(200)
		if !target.Delete(live[j], ids[j]) {
			t.Fatalf("overlay delete %d failed", i)
		}
		remove(j)
	}
	// Resurrect: delete a base point, then insert the exact point back.
	j := rng.Intn(50)
	p, id := live[j], ids[j]
	if !target.Delete(p, id) {
		t.Fatal("resurrection delete failed")
	}
	if err := target.Insert(p, id); err != nil {
		t.Fatal(err)
	}
	return live, ids
}

// queryVariants is the algorithm × aggregate × k grid the differential
// assertions sweep.
type variant struct {
	algo gnn.Algorithm
	agg  gnn.Aggregate
	k    int
}

func variants() []variant {
	var out []variant
	for _, algo := range []gnn.Algorithm{gnn.AlgoMBM, gnn.AlgoMQM, gnn.AlgoBruteForce} {
		for _, agg := range []gnn.Aggregate{gnn.SumDist, gnn.MaxDist, gnn.MinDist} {
			out = append(out, variant{algo, agg, 5})
		}
	}
	out = append(out, variant{gnn.AlgoSPM, gnn.SumDist, 5}) // SPM's pruning lemma is sum-only
	out = append(out, variant{gnn.AlgoMBM, gnn.SumDist, 1}, variant{gnn.AlgoMBM, gnn.SumDist, 32})
	return out
}

// assertEquivalent sweeps the variant grid over both indexes and demands
// identical results. Coordinates are distinct random floats, so exact
// aggregate-distance ties (the one sanctioned divergence) do not occur.
func assertEquivalent(t *testing.T, label string, got, want *gnn.Index, groups [][]gnn.Point) {
	t.Helper()
	for _, v := range variants() {
		for gi, q := range groups {
			opts := []gnn.QueryOption{gnn.WithAlgorithm(v.algo), gnn.WithAggregate(v.agg), gnn.WithK(v.k)}
			g, err := got.GroupNN(q, opts...)
			if err != nil {
				t.Fatalf("%s: %v/%v k=%d group=%d: %v", label, v.algo, v.agg, v.k, gi, err)
			}
			w, err := want.GroupNN(q, opts...)
			if err != nil {
				t.Fatalf("%s: fresh %v/%v k=%d group=%d: %v", label, v.algo, v.agg, v.k, gi, err)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: %v/%v k=%d group=%d diverged\nmutated: %v\nfresh:   %v",
					label, v.algo, v.agg, v.k, gi, g, w)
			}
		}
	}
}

func overlayFixture(t *testing.T, n int, seed int64) ([]gnn.Point, [][]gnn.Point, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]gnn.Point, n)
	for i := range pts {
		pts[i] = gnn.Point{rng.Float64() * 100, rng.Float64() * 100}
	}
	groups := make([][]gnn.Point, 4)
	for i := range groups {
		g := make([]gnn.Point, 3+i)
		for j := range g {
			g[j] = gnn.Point{rng.Float64() * 100, rng.Float64() * 100}
		}
		groups[i] = g
	}
	return pts, groups, rng
}

// TestOverlayDifferentialPlain: a mutated plain index is
// result-equivalent to a fresh index over the live multiset, on both
// layouts, before any compaction.
func TestOverlayDifferentialPlain(t *testing.T) {
	pts, groups, rng := overlayFixture(t, 400, 71)
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	live, ids := runMutationScript(t, ix, pts, rng)
	if ix.Len() != len(live) {
		t.Fatalf("Len: %d, want %d", ix.Len(), len(live))
	}
	fresh, err := gnn.BuildIndex(live, ids, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, "pre-compaction", ix, fresh, groups)

	// Iterator: the merged overlay stream yields the fresh index's
	// stream, element for element.
	mit, err := ix.GroupNNIterator(groups[0])
	if err != nil {
		t.Fatal(err)
	}
	defer mit.Close()
	fit, err := fresh.GroupNNIterator(groups[0])
	if err != nil {
		t.Fatal(err)
	}
	defer fit.Close()
	for i := 0; i < 50; i++ {
		g, gok := mit.Next()
		w, wok := fit.Next()
		if gok != wok || !reflect.DeepEqual(g, w) {
			t.Fatalf("iterator diverged at %d: (%v,%v) vs (%v,%v)", i, g, gok, w, wok)
		}
		if !gok {
			break
		}
	}

	// NearestNeighbors rides the same overlay merge.
	for i := 0; i < 5; i++ {
		q := gnn.Point{rng.Float64() * 100, rng.Float64() * 100}
		g, err := ix.NearestNeighbors(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		w, err := fresh.NearestNeighbors(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("NN diverged:\nmutated: %v\nfresh:   %v", g, w)
		}
	}

	// After compaction the equivalence extends to Cost and node-access
	// counts: the rebuilt base is bulk-loaded from the same multiset.
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if s := ix.Stats(); s.Delta != 0 || s.Tombstones != 0 || s.CompactGen != 1 {
		t.Fatalf("post-compaction stats: %+v", s)
	}
	for _, v := range variants() {
		opts := []gnn.QueryOption{gnn.WithAlgorithm(v.algo), gnn.WithAggregate(v.agg), gnn.WithK(v.k)}
		g, gc, err := ix.GroupNNWithCost(groups[0], opts...)
		if err != nil {
			t.Fatal(err)
		}
		w, wc, err := fresh.GroupNNWithCost(groups[0], opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) || gc != wc {
			t.Fatalf("post-compaction %v/%v: results or cost diverged: %+v vs %+v", v.algo, v.agg, gc, wc)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOverlayDifferentialSharded mirrors the plain differential over the
// sharded index: mutated scatter-gather vs a fresh sharded build.
func TestOverlayDifferentialSharded(t *testing.T) {
	pts, groups, rng := overlayFixture(t, 400, 72)
	sx, err := gnn.BuildShardedIndex(pts, nil, 3, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	live, ids := runMutationScript(t, sx, pts, rng)
	if sx.Len() != len(live) {
		t.Fatalf("Len: %d, want %d", sx.Len(), len(live))
	}
	fresh, err := gnn.BuildShardedIndex(live, ids, 3, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	assertEquivalent(t, "sharded pre-compaction", sx, fresh, groups)

	// The mutated sharded index also matches a plain fresh index — the
	// cross-execution-strategy equivalence the sharding layer promises.
	plain, err := gnn.BuildIndex(live, ids, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, "sharded vs plain", sx, plain, groups[:2])

	mit, err := sx.GroupNNIterator(groups[0])
	if err != nil {
		t.Fatal(err)
	}
	defer mit.Close()
	fit, err := fresh.GroupNNIterator(groups[0])
	if err != nil {
		t.Fatal(err)
	}
	defer fit.Close()
	for i := 0; i < 50; i++ {
		g, gok := mit.Next()
		w, wok := fit.Next()
		if gok != wok || !reflect.DeepEqual(g, w) {
			t.Fatalf("sharded iterator diverged at %d: (%v,%v) vs (%v,%v)", i, g, gok, w, wok)
		}
		if !gok {
			break
		}
	}

	// Compaction re-partitions into the same shard count and drains the
	// overlay; results stay equivalent and cost matches the fresh build.
	if err := sx.Compact(); err != nil {
		t.Fatal(err)
	}
	if s := sx.Stats(); s.Delta != 0 || s.Tombstones != 0 || s.CompactGen != 1 || s.Shards != 3 {
		t.Fatalf("post-compaction sharded stats: %+v", s)
	}
	// Costs are compared on the sequential scatter (WithShards(1)), the
	// deterministic execution: the concurrent default scatter has
	// timing-dependent NA by design, so there only results are compared.
	assertEquivalent(t, "sharded post-compaction", sx, fresh, groups[:1])
	for _, v := range variants()[:4] {
		opts := []gnn.QueryOption{gnn.WithAlgorithm(v.algo), gnn.WithAggregate(v.agg), gnn.WithK(v.k), gnn.WithShards(1)}
		g, gc, err := sx.GroupNNWithCost(groups[0], opts...)
		if err != nil {
			t.Fatal(err)
		}
		w, wc, err := fresh.GroupNNWithCost(groups[0], opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) || gc != wc {
			t.Fatalf("post-compaction sharded %v/%v: diverged: %+v vs %+v", v.algo, v.agg, gc, wc)
		}
	}
	if err := sx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOverlayWithKZero: WithK(0) means the default k of 1 on every read
// path — GroupNN, GroupNNBatch and GroupNNExplain, whose K reports the k
// served — on a plain and a sharded index, before and after writes.
func TestOverlayWithKZero(t *testing.T) {
	pts, groups, rng := overlayFixture(t, 400, 74)
	plain, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := gnn.BuildShardedIndex(pts, nil, 4, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	check := func(label string, ix *gnn.Index) {
		t.Helper()
		for _, algo := range []gnn.Algorithm{gnn.AlgoMBM, gnn.AlgoMQM, gnn.AlgoSPM, gnn.AlgoBruteForce} {
			for gi, q := range groups {
				got, err := ix.GroupNN(q, gnn.WithK(0), gnn.WithAlgorithm(algo))
				if err != nil {
					t.Fatalf("%s %v group %d: %v", label, algo, gi, err)
				}
				want, err := ix.GroupNN(q, gnn.WithK(1), gnn.WithAlgorithm(algo))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v group %d: WithK(0) = %v, WithK(1) = %v", label, algo, gi, got, want)
				}
			}
		}
		got, want := ix.GroupNNBatch(groups, gnn.WithK(0)), ix.GroupNNBatch(groups, gnn.WithK(1))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s batch: WithK(0) = %+v, WithK(1) = %+v", label, got, want)
		}
		res, ex, err := ix.GroupNNExplain(groups[0], gnn.WithK(0))
		if err != nil {
			t.Fatal(err)
		}
		if ex.K != 1 || !reflect.DeepEqual(res, want[0].Results) {
			t.Fatalf("%s explain: K = %d, results %v, want K = 1 and %v", label, ex.K, res, want[0].Results)
		}
	}
	for _, c := range []struct {
		label string
		ix    *gnn.Index
	}{{"plain", plain}, {"sharded", sharded}} {
		check(c.label, c.ix)
		if err := c.ix.Insert(gnn.Point{rng.Float64() * 100, rng.Float64() * 100}, int64(len(pts))); err != nil {
			t.Fatal(err)
		}
		check(c.label+" after an insert", c.ix)
		runMutationScript(t, c.ix, pts, rng)
		check(c.label+" after the mutation script", c.ix)
	}
}

// TestOverlaySnapshotRoundTrip: snapshotting a mutated index compacts
// transiently — the loaded index equals a fresh build over the live
// multiset, and the serving index still carries its overlay.
func TestOverlaySnapshotRoundTrip(t *testing.T) {
	pts, groups, rng := overlayFixture(t, 300, 73)
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	live, ids := runMutationScript(t, ix, pts, rng)
	dir := t.TempDir()
	path := filepath.Join(dir, "mutated.snap")
	if err := ix.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if s := ix.Stats(); s.Delta == 0 {
		t.Fatal("WriteSnapshot must not drain the serving overlay")
	}
	loaded, err := gnn.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := gnn.BuildIndex(live, ids, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, "snapshot round-trip", loaded, fresh, groups[:2])
}

// TestOverlayDiskFamilyGuard: the query-set family refuses indexes with
// pending mutations and serves again once compacted.
func TestOverlayDiskFamilyGuard(t *testing.T) {
	pts, groups, _ := overlayFixture(t, 200, 74)
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	qset, err := gnn.NewQuerySet(groups[0], gnn.QuerySetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.GroupNNFromSet(qset, gnn.DiskAuto); err != nil {
		t.Fatalf("clean index: %v", err)
	}
	if err := ix.Insert(gnn.Point{1, 2}, 9001); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.GroupNNFromSet(qset, gnn.DiskAuto); !errors.Is(err, gnn.ErrPendingMutations) {
		t.Fatalf("mutated index: %v, want ErrPendingMutations", err)
	}
	qix, err := gnn.BuildIndex(groups[0], nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.GroupNNClosestPairs(qix, 0); !errors.Is(err, gnn.ErrPendingMutations) {
		t.Fatalf("GCP on mutated index: %v, want ErrPendingMutations", err)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.GroupNNFromSet(qset, gnn.DiskAuto); err != nil {
		t.Fatalf("compacted index: %v", err)
	}
	if _, err := ix.GroupNNClosestPairs(qix, 0); err != nil {
		t.Fatalf("GCP on compacted index: %v", err)
	}
}

// TestOverlayCostSumInvariant: per-query costs on a mutated index still
// sum to the index-wide aggregate — tombstone bookkeeping and overlay
// maintenance charge nothing.
func TestOverlayCostSumInvariant(t *testing.T) {
	pts, groups, rng := overlayFixture(t, 400, 75)
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	runMutationScript(t, ix, pts, rng)
	ix.ResetCost()
	var sum gnn.Cost
	for _, q := range groups {
		for _, algo := range []gnn.Algorithm{gnn.AlgoMBM, gnn.AlgoMQM, gnn.AlgoSPM} {
			_, c, err := ix.GroupNNWithCost(q, gnn.WithAlgorithm(algo), gnn.WithK(3))
			if err != nil {
				t.Fatal(err)
			}
			sum.NodeAccesses += c.NodeAccesses
			sum.BufferHits += c.BufferHits
			sum.LogicalAccesses += c.LogicalAccesses
		}
	}
	if got := ix.Cost(); got != sum {
		t.Fatalf("aggregate cost %+v, sum of per-query costs %+v", got, sum)
	}
}

// TestOverlayEdgeCases: duplicate points under one id, multiplicity
// tombstones, delete-then-reinsert loops, and Bounds conservatism.
func TestOverlayEdgeCases(t *testing.T) {
	dup := gnn.Point{5, 5}
	pts := []gnn.Point{dup, dup, {1, 1}, {9, 9}}
	ids := []int64{7, 7, 1, 2}
	ix, err := gnn.BuildIndex(pts, ids, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Two base copies of (5,5)/7: the first delete masks one — the point
	// stays visible (the remaining copy is live) — the second masks both.
	if !ix.Delete(dup, 7) {
		t.Fatal("first duplicate delete failed")
	}
	res, err := ix.GroupNN([]gnn.Point{dup}, gnn.WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 7 {
		t.Fatalf("half-masked duplicate should stay visible: %v", res)
	}
	if !ix.Delete(dup, 7) {
		t.Fatal("second duplicate delete failed")
	}
	if ix.Delete(dup, 7) {
		t.Fatal("third duplicate delete should fail")
	}
	res, err = ix.GroupNN([]gnn.Point{dup}, gnn.WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 1 && res[0].ID == 7 {
		t.Fatal("fully masked duplicate still visible")
	}
	if ix.Len() != 2 {
		t.Fatalf("Len after duplicate deletes: %d, want 2", ix.Len())
	}
	// Resurrect one copy.
	if err := ix.Insert(dup, 7); err != nil {
		t.Fatal(err)
	}
	res, err = ix.GroupNN([]gnn.Point{dup}, gnn.WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 7 {
		t.Fatalf("resurrected point invisible: %v", res)
	}
	if s := ix.Stats(); s.Delta != 0 {
		t.Fatalf("resurrection must not grow the overlay: %+v", s)
	}
	// Overlay inserts extend Bounds.
	if err := ix.Insert(gnn.Point{100, 100}, 50); err != nil {
		t.Fatal(err)
	}
	_, hi, ok := ix.Bounds()
	if !ok || hi[0] < 100 || hi[1] < 100 {
		t.Fatalf("Bounds ignore overlay insert: hi=%v ok=%v", hi, ok)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactorLifecycle locks the compactor's control surface: start,
// double-start, threshold trigger and stop. TestCompactPacksNewIndex
// covers a start on a NewIndex before its first read.
func TestCompactorLifecycle(t *testing.T) {
	pts, _, _ := overlayFixture(t, 100, 76)
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.StartCompactor(gnn.CompactorConfig{Threshold: 8}); err != nil {
		t.Fatal(err)
	}
	if err := ix.StartCompactor(gnn.CompactorConfig{}); !errors.Is(err, gnn.ErrCompactorRunning) {
		t.Fatalf("double StartCompactor: %v", err)
	}
	for i := 0; i < 64; i++ {
		if err := ix.Insert(gnn.Point{float64(i), float64(i)}, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	// The background loop must fold the overlay down below threshold;
	// poll briefly (the trigger is asynchronous).
	deadline := 200
	for ; deadline > 0; deadline-- {
		if s := ix.Stats(); s.CompactGen > 0 && s.Delta < 8 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if deadline == 0 {
		t.Fatalf("background compactor never caught up: %+v", ix.Stats())
	}
	ix.StopCompactor()
	ix.StopCompactor() // idempotent
	if err := ix.StartCompactor(gnn.CompactorConfig{}); err != nil {
		t.Fatalf("restart after stop: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ix.Len(); got != 100+64 {
		t.Fatalf("Len after compaction: %d", got)
	}
}
