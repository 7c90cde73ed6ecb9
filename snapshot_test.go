package gnn_test

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"gnn"
)

// snapshotFixture builds the differential fixture: data points, an index
// over them, and a query workload of spatially concentrated groups.
func snapshotFixture(t *testing.T, n int, seed int64) ([]gnn.Point, *gnn.Index, [][]gnn.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]gnn.Point, n)
	for i := range pts {
		pts[i] = gnn.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]gnn.Point, 12)
	for i := range queries {
		g := make([]gnn.Point, 3+rng.Intn(6))
		base := rng.Float64() * 850
		for j := range g {
			g[j] = gnn.Point{base + rng.Float64()*140, base + rng.Float64()*140}
		}
		queries[i] = g
	}
	return pts, ix, queries
}

// roundTrip writes ix to a buffer and loads it back.
func roundTrip(t *testing.T, ix *gnn.Index) *gnn.Index {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	loaded, err := gnn.OpenSnapshot(&buf)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	return loaded
}

// requireSameAnswer compares one query's results and per-query cost
// between the writer index and the loaded index, bit for bit.
func requireSameAnswer(t *testing.T, label string, wantRes []gnn.Result, wantCost gnn.Cost, wantErr error,
	gotRes []gnn.Result, gotCost gnn.Cost, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error diverged: %v vs %v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(wantRes, gotRes) {
		t.Fatalf("%s: results diverged\nwriter: %v\nloaded: %v", label, wantRes, gotRes)
	}
	if wantCost != gotCost {
		t.Fatalf("%s: cost diverged: %+v vs %+v", label, wantCost, gotCost)
	}
}

// TestSnapshotRoundTripEquivalence is the acceptance suite's core: a
// snapshot-loaded index answers every memory-resident algorithm — across
// aggregates and k values — with bit-identical results,
// Cost and node-access counts to the index that wrote it.
func TestSnapshotRoundTripEquivalence(t *testing.T) {
	_, ix, queries := snapshotFixture(t, 2500, 7)
	loaded := roundTrip(t, ix)
	if got, want := loaded.Stats(), ix.Stats(); got != want {
		t.Fatalf("stats diverged: %+v vs %+v", got, want)
	}

	type cell struct {
		name string
		opts []gnn.QueryOption
	}
	cells := []cell{
		{"MQM/sum", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM)}},
		{"MQM/max", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM), gnn.WithAggregate(gnn.MaxDist)}},
		{"SPM", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoSPM)}},
		{"SPM/df", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoSPM), gnn.WithDepthFirst()}},
		{"MBM/sum", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM)}},
		{"MBM/df", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst()}},
		{"MBM/min", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MinDist)}},
		{"brute", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoBruteForce)}},
		{"MBM/region", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithRegion(gnn.Point{200, 200}, gnn.Point{900, 900})}},
		{"MQM/weights", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM), gnn.WithWeights([]float64{3, 1, 2})}},
	}
	for _, c := range cells {
		for qi, q := range queries {
			if c.name == "MQM/weights" && len(q) != 3 {
				continue
			}
			opts := append([]gnn.QueryOption{gnn.WithK(1 + qi%5)}, c.opts...)
			wr, wc, werr := ix.GroupNNWithCost(q, opts...)
			lr, lc, lerr := loaded.GroupNNWithCost(q, opts...)
			requireSameAnswer(t, c.name, wr, wc, werr, lr, lc, lerr)
		}
	}

	// Point-NN queries and the incremental iterator.
	for _, q := range queries {
		wr, wc, werr := ix.NearestNeighborsWithCost(q[0], 7)
		lr, lc, lerr := loaded.NearestNeighborsWithCost(q[0], 7)
		requireSameAnswer(t, "NN", wr, wc, werr, lr, lc, lerr)

		wit, err := ix.GroupNNIterator(q)
		if err != nil {
			t.Fatal(err)
		}
		lit, err := loaded.GroupNNIterator(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 15; i++ {
			wn, wok := wit.Next()
			ln, lok := lit.Next()
			if wok != lok || !reflect.DeepEqual(wn, ln) {
				t.Fatalf("iterator step %d diverged", i)
			}
		}
		if wit.Cost() != lit.Cost() {
			t.Fatalf("iterator cost diverged: %+v vs %+v", wit.Cost(), lit.Cost())
		}
		wit.Close()
		lit.Close()
	}

	// Aggregate accounting stays exact on the loaded index: per-query
	// costs sum to the aggregate it accrued.
	loaded.ResetCost()
	var sum gnn.Cost
	for _, q := range queries {
		_, c, err := loaded.GroupNNWithCost(q, gnn.WithK(3))
		if err != nil {
			t.Fatal(err)
		}
		sum.Add(c)
	}
	if got := loaded.Cost(); got != sum {
		t.Fatalf("aggregate %+v != per-query sum %+v", got, sum)
	}
}

// TestSnapshotRoundTripDisk covers the disk-resident family: F-MQM and
// F-MBM (fresh QuerySet per side, so page-read accounting starts equal)
// and GCP with an indexed query set.
func TestSnapshotRoundTripDisk(t *testing.T) {
	_, ix, queries := snapshotFixture(t, 1500, 21)
	loaded := roundTrip(t, ix)

	var qpts []gnn.Point
	for _, q := range queries[:8] {
		qpts = append(qpts, q...)
	}
	for _, algo := range []gnn.DiskAlgorithm{gnn.DiskFMQM, gnn.DiskFMBM} {
		mkSet := func() *gnn.QuerySet {
			qs, err := gnn.NewQuerySet(qpts, gnn.QuerySetConfig{BlockPoints: 12})
			if err != nil {
				t.Fatal(err)
			}
			return qs
		}
		wr, wc, werr := ix.GroupNNFromSetWithCost(mkSet(), algo, gnn.WithK(4))
		lr, lc, lerr := loaded.GroupNNFromSetWithCost(mkSet(), algo, gnn.WithK(4))
		requireSameAnswer(t, algo.String(), wr, wc, werr, lr, lc, lerr)
	}

	qix, err := gnn.BuildIndex(qpts, nil, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	wr, wc, werr := ix.GroupNNClosestPairsWithCost(qix, 0, gnn.WithK(4))
	lr, lc, lerr := loaded.GroupNNClosestPairsWithCost(qix, 0, gnn.WithK(4))
	requireSameAnswer(t, "GCP", wr, wc, werr, lr, lc, lerr)
}

// TestShardedSnapshotRoundTrip: a sharded index round-trips with its
// partition intact and answers bit-identically, per query and per cost.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	pts, _, queries := snapshotFixture(t, 2200, 33)
	for _, shards := range []int{1, 3, 7} {
		sx, err := gnn.BuildShardedIndex(pts, nil, shards, gnn.IndexConfig{NodeCapacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sx.WriteSnapshot(&buf); err != nil {
			t.Fatalf("S=%d WriteSnapshot: %v", shards, err)
		}
		loaded, err := gnn.OpenSnapshot(&buf)
		if err != nil {
			t.Fatalf("S=%d OpenSnapshot: %v", shards, err)
		}
		if !reflect.DeepEqual(gnn.ShardSizes(loaded), gnn.ShardSizes(sx)) {
			t.Fatalf("S=%d: partition changed: %v vs %v", shards, gnn.ShardSizes(loaded), gnn.ShardSizes(sx))
		}
		if got, want := loaded.Stats(), sx.Stats(); got != want {
			t.Fatalf("S=%d: stats diverged: %+v vs %+v", shards, got, want)
		}
		if err := loaded.CheckInvariants(); err != nil {
			t.Fatalf("S=%d: %v", shards, err)
		}
		for qi, q := range queries {
			for _, algo := range []gnn.Algorithm{gnn.AlgoMQM, gnn.AlgoSPM, gnn.AlgoMBM, gnn.AlgoBruteForce} {
				opts := []gnn.QueryOption{gnn.WithK(1 + qi%4), gnn.WithAlgorithm(algo), gnn.WithShards(1)}
				wr, wc, werr := sx.GroupNNWithCost(q, opts...)
				lr, lc, lerr := loaded.GroupNNWithCost(q, opts...)
				requireSameAnswer(t, algo.String(), wr, wc, werr, lr, lc, lerr)
			}
		}
		// Sharded iterator streams match too.
		wit, err := sx.GroupNNIterator(queries[0])
		if err != nil {
			t.Fatal(err)
		}
		lit, err := loaded.GroupNNIterator(queries[0])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			wn, wok := wit.Next()
			ln, lok := lit.Next()
			if wok != lok || !reflect.DeepEqual(wn, ln) {
				t.Fatalf("S=%d: iterator step %d diverged", shards, i)
			}
		}
		wit.Close()
		lit.Close()
	}
}

// TestSnapshotOfUnpackedIndex: an incrementally built (never packed)
// index snapshots through a transient pack that leaves the serving state
// untouched, and the loaded twin answers identically.
func TestSnapshotOfUnpackedIndex(t *testing.T) {
	ix, err := gnn.NewIndex(gnn.IndexConfig{NodeCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 600; i++ {
		if err := ix.Insert(gnn.Point{rng.Float64() * 100, rng.Float64() * 100}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Stats().Packed {
		t.Fatal("incremental index unexpectedly packed")
	}
	loaded := roundTrip(t, ix)
	if ix.Stats().Packed {
		t.Fatal("WriteSnapshot must not change the writer's serving state")
	}
	if !loaded.Stats().Packed {
		t.Fatal("loaded index should serve packed")
	}
	q := []gnn.Point{{10, 20}, {30, 40}, {50, 5}}
	wr, wc, werr := ix.GroupNNWithCost(q, gnn.WithK(5))
	lr, lc, lerr := loaded.GroupNNWithCost(q, gnn.WithK(5))
	requireSameAnswer(t, "unpacked writer", wr, wc, werr, lr, lc, lerr)

	// And the loaded index stays fully mutable: the same insert on both
	// sides keeps them exchangeable.
	for i, p := range [][2]float64{{1, 2}, {99, 98}, {42, 41}} {
		if err := ix.Insert(gnn.Point{p[0], p[1]}, int64(9000+i)); err != nil {
			t.Fatal(err)
		}
		if err := loaded.Insert(gnn.Point{p[0], p[1]}, int64(9000+i)); err != nil {
			t.Fatal(err)
		}
	}
	wr, wc, werr = ix.GroupNNWithCost(q, gnn.WithK(5))
	lr, lc, lerr = loaded.GroupNNWithCost(q, gnn.WithK(5))
	requireSameAnswer(t, "post-load insert", wr, wc, werr, lr, lc, lerr)
}

// TestSnapshotEmptyIndex: an empty index round-trips.
func TestSnapshotEmptyIndex(t *testing.T) {
	ix, err := gnn.NewIndex(gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, ix)
	if loaded.Len() != 0 || loaded.Dim() != 2 {
		t.Fatalf("loaded %d points, dim %d", loaded.Len(), loaded.Dim())
	}
	if _, err := loaded.GroupNN([]gnn.Point{{1, 2}}); err != nil {
		t.Fatalf("query on empty loaded index: %v", err)
	}
	if err := loaded.Insert(gnn.Point{5, 5}, 1); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotBufferedLoad: WithSnapshotBuffer attaches an LRU whose
// hit/miss stream matches an equally configured built index, query for
// query from cold.
func TestSnapshotBufferedLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := make([]gnn.Point, 1200)
	for i := range pts {
		pts[i] = gnn.Point{rng.Float64() * 500, rng.Float64() * 500}
	}
	built, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{NodeCapacity: 16, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := gnn.OpenSnapshot(&buf, gnn.WithSnapshotBuffer(32))
	if err != nil {
		t.Fatal(err)
	}
	var hits int64
	for i := 0; i < 20; i++ {
		q := []gnn.Point{{rng.Float64() * 500, rng.Float64() * 500}, {rng.Float64() * 500, rng.Float64() * 500}}
		_, wc, err := built.GroupNNWithCost(q, gnn.WithK(3))
		if err != nil {
			t.Fatal(err)
		}
		_, lc, err := loaded.GroupNNWithCost(q, gnn.WithK(3))
		if err != nil {
			t.Fatal(err)
		}
		if wc != lc {
			t.Fatalf("query %d: buffered cost diverged: %+v vs %+v", i, wc, lc)
		}
		hits += lc.BufferHits
	}
	if hits == 0 {
		t.Fatal("expected buffer hits on the loaded index")
	}
}

// TestSnapshotErrors locks the public error surface.
func TestSnapshotErrors(t *testing.T) {
	if _, err := gnn.OpenSnapshot(bytes.NewReader([]byte("definitely not a snapshot"))); !errors.Is(err, gnn.ErrSnapshotBadMagic) {
		t.Fatalf("garbage: %v", err)
	}
	if _, err := gnn.OpenSnapshot(bytes.NewReader(nil)); !errors.Is(err, gnn.ErrSnapshotTruncated) {
		t.Fatalf("empty: %v", err)
	}

	_, ix, _ := snapshotFixture(t, 300, 5)
	var plain bytes.Buffer
	if err := ix.WriteSnapshot(&plain); err != nil {
		t.Fatal(err)
	}

	// A flipped payload byte surfaces as a checksum error end to end.
	data := plain.Bytes()
	data[len(data)-2] ^= 0x40
	if _, err := gnn.OpenSnapshot(bytes.NewReader(data)); !errors.Is(err, gnn.ErrSnapshotChecksum) {
		t.Fatalf("flipped byte: %v", err)
	}
}

// TestSnapshotFileHelpers exercises the file-path convenience wrappers.
func TestSnapshotFileHelpers(t *testing.T) {
	dir := t.TempDir()
	_, ix, queries := snapshotFixture(t, 400, 12)
	path := filepath.Join(dir, "ix.snap")
	if err := ix.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := gnn.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wr, wc, werr := ix.GroupNNWithCost(queries[0], gnn.WithK(2))
	lr, lc, lerr := loaded.GroupNNWithCost(queries[0], gnn.WithK(2))
	requireSameAnswer(t, "file round-trip", wr, wc, werr, lr, lc, lerr)

	pts := make([]gnn.Point, 200)
	rng := rand.New(rand.NewSource(2))
	for i := range pts {
		pts[i] = gnn.Point{rng.Float64(), rng.Float64()}
	}
	sx, err := gnn.BuildShardedIndex(pts, nil, 3, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(dir, "sx.snap")
	if err := sx.WriteSnapshotFile(spath); err != nil {
		t.Fatal(err)
	}
	sloaded, err := gnn.OpenSnapshotFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	if sloaded.Stats().Shards != 3 || sloaded.Len() != 200 {
		t.Fatalf("sharded file round-trip: %d shards, %d points", sloaded.Stats().Shards, sloaded.Len())
	}
	if _, err := gnn.OpenSnapshotFile(filepath.Join(dir, "missing.snap")); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestStats locks the Stats surface across serving states.
func TestStats(t *testing.T) {
	_, ix, _ := snapshotFixture(t, 800, 8)
	s := ix.Stats()
	if s.Points != 800 || s.Dim != 2 || !s.Packed || s.Shards != 0 || s.Height < 2 || s.Nodes < 2 || s.ArenaBytes <= 0 {
		t.Fatalf("packed stats: %+v", s)
	}
	if err := ix.Insert(gnn.Point{1, 1}, 9999); err != nil {
		t.Fatal(err)
	}
	s = ix.Stats()
	if !s.Packed || s.Nodes == 0 || s.Points != 801 || s.Delta != 1 || s.Tombstones != 0 {
		t.Fatalf("overlay stats: %+v", s)
	}
	if !ix.Delete(gnn.Point{1, 1}, 9999) {
		t.Fatal("delete failed")
	}
	if s = ix.Stats(); s.Delta != 0 || s.Points != 800 {
		t.Fatalf("drained overlay stats: %+v", s)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if s = ix.Stats(); !s.Packed {
		t.Fatalf("re-packed stats: %+v", s)
	}

	pts := make([]gnn.Point, 500)
	rng := rand.New(rand.NewSource(4))
	for i := range pts {
		pts[i] = gnn.Point{rng.Float64(), rng.Float64()}
	}
	sx, err := gnn.BuildShardedIndex(pts, nil, 4, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s = sx.Stats()
	if s.Points != 500 || s.Shards != 4 || !s.Packed || s.Nodes < 4 || s.ArenaBytes <= 0 {
		t.Fatalf("sharded stats: %+v", s)
	}
}
