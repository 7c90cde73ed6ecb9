//go:build !race

// The hot path's cost contracts, measured in one process with every
// metric, trace hook and explain probe compiled in. Excluded under the
// race detector: there sync.Pool drops Puts at random, so the same warm
// queries allocate 9–15 times instead of 4, and the timed passes run
// about 13× slower.
package gnn_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"gnn"
	"gnn/internal/dataset"
)

// hotPathAllocs is the warm packed MBM kernel's allocation count per
// query, on both traversals and every aggregate.
const hotPathAllocs = 4

// TestHotPathAllocs pins the MBM cells of BenchmarkGroupNNAllocs at
// exactly hotPathAllocs allocations per warm query. Each run answers the
// whole workload, so a single extra allocation in any one query shows as
// a fraction above the budget rather than truncating away.
func TestHotPathAllocs(t *testing.T) {
	ix, queries := allocFixture(t)
	ran := 0
	for _, cell := range allocCells {
		if !strings.HasPrefix(cell.name, "MBM-") {
			continue
		}
		ran++
		opts := append([]gnn.QueryOption{gnn.WithK(8)}, cell.opts...)
		var qerr error
		perRun := testing.AllocsPerRun(20, func() {
			for _, q := range queries {
				if _, err := ix.GroupNN(q, opts...); err != nil {
					qerr = err
				}
			}
		})
		if qerr != nil {
			t.Fatalf("%s: %v", cell.name, qerr)
		}
		perQuery := perRun / float64(len(queries))
		t.Logf("%s: %.2f allocs/op", cell.name, perQuery)
		if perQuery != hotPathAllocs {
			t.Errorf("%s: %.2f allocs/op, want exactly %d", cell.name, perQuery, hotPathAllocs)
		}
	}
	if ran == 0 {
		t.Fatal("no MBM cell in allocCells")
	}
}

// shardedAllocCells bound the warm 4-shard MBM query's allocations per
// query at what the sequential scatter reads (BuildShardedIndex over
// allocFixture's TS points, the same 16 groups, k = 8): its per-shard run
// slots, result lists and merge. Lowering a bound is fine; raising one
// is a regression.
var shardedAllocCells = []struct {
	name string
	opts []gnn.QueryOption
	max  float64
}{
	{"MBM-BF/sum", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM)}, 16.125},
	{"MBM-BF/max", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist)}, 13.5},
	{"MBM-DF/sum", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst()}, 13.375},
}

// TestHotPathAllocsSharded bounds the warm scatter's allocations per
// query on a 4-shard index, so the partitioned path cannot gain
// allocations unseen. WithShards(1) runs the deterministic sequential
// scatter on the caller's pooled context, as the batch engine does.
func TestHotPathAllocsSharded(t *testing.T) {
	d, err := env().Dataset("TS")
	if err != nil {
		t.Fatal(err)
	}
	sx, err := gnn.BuildShardedIndex(publicPoints(d.Points), nil, 4, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	_, queries := allocFixture(t)
	for _, cell := range shardedAllocCells {
		opts := append([]gnn.QueryOption{gnn.WithK(8), gnn.WithShards(1)}, cell.opts...)
		var qerr error
		perRun := testing.AllocsPerRun(20, func() {
			for _, q := range queries {
				if _, err := sx.GroupNN(q, opts...); err != nil {
					qerr = err
				}
			}
		})
		if qerr != nil {
			t.Fatalf("%s: %v", cell.name, qerr)
		}
		perQuery := perRun / float64(len(queries))
		t.Logf("4 shards, %s: %.3f allocs/op", cell.name, perQuery)
		if perQuery > cell.max {
			t.Errorf("4 shards, %s: %.3f allocs/op, want at most %.3f", cell.name, perQuery, cell.max)
		}
	}
}

// overlayAllocCells bound the warm MBM query's allocations per query on
// indexes carrying every overlay source (overlayAllocFixture): the
// sources' result lists, the pending scan's accumulator and the merge.
// Lowering a bound is fine; raising one is a regression.
var overlayAllocCells = []struct {
	name         string
	opts         []gnn.QueryOption
	plain, shard float64
}{
	{"MBM-BF/sum", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM)}, 21, 30.125},
	{"MBM-BF/max", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist)}, 21, 27.5},
}

// overlayNNAllocs bounds the warm point-NN query's allocations per query
// (k = 8) on the plain index of overlayAllocFixture: its lazy merge of
// the base scan, with the tombstones' filter, the delta tree's scan and
// the pending tail, and the results. Lowering it is fine; raising it is
// a regression.
const overlayNNAllocs = 8

// overlayAllocFixture writes an overlay onto ix: 300 inserts, so 256 sit
// in a folded delta tree and 44 in the pending tail, and 30 deletes of
// base points, which tombstone them.
func overlayAllocFixture(t *testing.T, ix *gnn.Index, pts []gnn.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	span := dataset.Workspace().Hi[0]
	for i := 0; i < 300; i++ {
		if err := ix.Insert(gnn.Point{rng.Float64() * span, rng.Float64() * span}, int64(len(pts)+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		j := i * (len(pts) / 30)
		if !ix.Delete(pts[j], int64(j)) {
			t.Fatalf("delete of base point %d failed", j)
		}
	}
	if s := ix.Stats(); s.Delta != 300 || s.Tombstones != 30 {
		t.Fatalf("overlay fixture: %+v", s)
	}
}

// TestHotPathAllocsOverlay bounds the warm read of a view with writes —
// base, delta tree and pending tail under one bound and one merge — on a
// plain and a 4-shard index, and the point-NN query on the plain one, so
// the overlay path cannot gain allocations unseen. WithShards(1) runs the
// sequential scatter on the caller's pooled context.
func TestHotPathAllocsOverlay(t *testing.T) {
	d, err := env().Dataset("TS")
	if err != nil {
		t.Fatal(err)
	}
	pts := publicPoints(d.Points)
	plain, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := gnn.BuildShardedIndex(pts, nil, 4, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	_, queries := allocFixture(t)
	for _, ix := range []*gnn.Index{plain, sharded} {
		overlayAllocFixture(t, ix, pts)
	}
	for _, cell := range overlayAllocCells {
		opts := append([]gnn.QueryOption{gnn.WithK(8), gnn.WithShards(1)}, cell.opts...)
		for _, c := range []struct {
			label string
			ix    *gnn.Index
			max   float64
		}{{"plain", plain, cell.plain}, {"4 shards", sharded, cell.shard}} {
			var qerr error
			perRun := testing.AllocsPerRun(20, func() {
				for _, q := range queries {
					if _, err := c.ix.GroupNN(q, opts...); err != nil {
						qerr = err
					}
				}
			})
			if qerr != nil {
				t.Fatalf("%s, %s: %v", c.label, cell.name, qerr)
			}
			perQuery := perRun / float64(len(queries))
			t.Logf("%s with overlay, %s: %.3f allocs/op", c.label, cell.name, perQuery)
			if perQuery > c.max {
				t.Errorf("%s with overlay, %s: %.3f allocs/op, want at most %.3f", c.label, cell.name, perQuery, c.max)
			}
		}
	}
	var nnErr error
	perRun := testing.AllocsPerRun(20, func() {
		for _, q := range queries {
			if _, err := plain.NearestNeighbors(q[0], 8); err != nil {
				nnErr = err
			}
		}
	})
	if nnErr != nil {
		t.Fatalf("plain with overlay, NearestNeighbors: %v", nnErr)
	}
	perQuery := perRun / float64(len(queries))
	t.Logf("plain with overlay, NearestNeighbors: %.3f allocs/op", perQuery)
	if perQuery > overlayNNAllocs {
		t.Errorf("plain with overlay, NearestNeighbors: %.3f allocs/op, want at most %d", perQuery, overlayNNAllocs)
	}
}

// maxExplainRatio bounds what an explained query may cost over the plain
// one. Tracing does real extra work (stage clocks, prune counters), but
// it must stay the same order of magnitude as the query.
const maxExplainRatio = 2.0

// TestExplainOverhead bounds GroupNNExplain's time against plain GroupNN
// on the warm packed MBM kernel. The two sides run in alternating passes
// so drift hits both alike, and each side keeps its fastest pass.
func TestExplainOverhead(t *testing.T) {
	ix, queries := allocFixture(t)
	opts := []gnn.QueryOption{gnn.WithK(8), gnn.WithAlgorithm(gnn.AlgoMBM)}
	pass := func(explain bool) time.Duration {
		const rounds = 24
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for _, q := range queries {
				var err error
				if explain {
					_, _, err = ix.GroupNNExplain(q, opts...)
				} else {
					_, err = ix.GroupNN(q, opts...)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		return time.Since(start)
	}
	pass(false) // warm both entry points' scratch
	pass(true)
	const passes = 5
	var plain, explained time.Duration
	for i := 0; i < passes; i++ {
		p, e := pass(false), pass(true)
		if i == 0 || p < plain {
			plain = p
		}
		if i == 0 || e < explained {
			explained = e
		}
	}
	ratio := float64(explained) / float64(plain)
	t.Logf("explained/plain %.3f (min of %d passes: plain %v, explained %v)", ratio, passes, plain, explained)
	if ratio > maxExplainRatio {
		t.Errorf("explained/plain = %.3f, want ≤ %.1f", ratio, maxExplainRatio)
	}
}
