// Golden-trace regression test: the node-access counts of the fixed seed
// workloads below are locked in, so a change that silently regresses
// pruning (looser bounds, reordered candidates, a broken heuristic) fails
// loudly instead of shipping as a quiet slowdown. The counts are exact,
// not thresholds: every traversal in this codebase is deterministic for a
// fixed dataset and query list.
//
// If an intentional pruning improvement changes a number, update the
// table — in its own commit, with the new value justified.
package gnn_test

import (
	"math/rand"
	"testing"

	"gnn"
)

// goldenNA is the locked-in total of physical node accesses (the paper's
// NA metric) summed over the 40 queries of the fixed workload.
var goldenNA = map[string]int64{
	"MBM-BF/sum": 281,
	"MBM-DF/sum": 309,
	"MQM/sum":    7085,
	"SPM-BF/sum": 504,
	"SPM-DF/sum": 534,
	"MBM-BF/max": 251,
	"MBM-DF/max": 283,
	// The dedicated MEB kernel (maxmeb.go) is the default MAX path; the
	// -generic cells lock the old per-member pruning path (WithGenericMax)
	// so both stay regression-guarded independently. On this clustered
	// fixture only the sharded cell improves (the per-shard re-descents
	// give the ball bound more laterally-wide nodes to kill); the uniform
	// 100k grid of TestMaxKernelPrunesBelowGeneric shows the plain-index
	// gap.
	"MBM-BF/max-generic":      251,
	"MBM-DF/max-generic":      283,
	"sharded-MBM/max-generic": 571,
	"MQM/max":                 9612,
	"sharded-MBM/sum":         583,
	"sharded-MBM/max":         549,
	"sharded-MQM/sum":         13568,
	"iterator-k8/sum":         281,
	"sharded-iter/sum":        432,
	// Region-constrained traversals (goldenRegion), GCP against a query
	// index per group, and F-MBM over a 16-point-block query set.
	"MBM-BF/sum/region":      225,
	"MBM-DF/sum/region":      226,
	"SPM-BF/sum/region":      285,
	"SPM-DF/sum/region":      285,
	"iterator-k8/sum/region": 225,
	"GCP/sum":                12461,
	"F-MBM-BF/sum":           1050,
	"F-MBM-DF/sum":           1196,
}

// goldenRegion is the constraint box of the region cells: it overlaps the
// group's neighbourhood on one side only.
func goldenRegion(qs []gnn.Point) (lo, hi gnn.Point) {
	return gnn.Point{qs[0][0] + 100, qs[0][1] - 50}, gnn.Point{qs[0][0] + 300, qs[0][1] + 150}
}

// goldenFixture builds the fixed workload: clustered data and spatially
// concentrated query groups from a pinned seed.
func goldenFixture(t *testing.T) (*gnn.Index, *gnn.ShardedIndex, [][]gnn.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(123))
	pts := clusterPoints(rng, 3000, 1000)
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := gnn.BuildShardedIndex(pts, nil, 4, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]gnn.Point, 40)
	for i := range queries {
		queries[i] = queryGroup(rng, []int{1, 4, 16, 64}[i%4], 1000)
	}
	return ix, sx, queries
}

func TestGoldenNodeAccesses(t *testing.T) {
	ix, sx, queries := goldenFixture(t)

	type cell struct {
		name string
		run  func(qs []gnn.Point) (gnn.Cost, error)
	}
	q := func(ix *gnn.Index, opts ...gnn.QueryOption) func([]gnn.Point) (gnn.Cost, error) {
		return func(qs []gnn.Point) (gnn.Cost, error) {
			_, c, err := ix.GroupNNWithCost(qs, append(opts, gnn.WithK(8))...)
			return c, err
		}
	}
	sq := func(opts ...gnn.QueryOption) func([]gnn.Point) (gnn.Cost, error) {
		return func(qs []gnn.Point) (gnn.Cost, error) {
			// WithShards(1): the sequential scatter is the deterministic
			// execution (the bound cascades shard to shard in index order);
			// concurrent scatter has timing-dependent NA by design.
			_, c, err := sx.GroupNNWithCost(qs, append(opts, gnn.WithK(8), gnn.WithShards(1))...)
			return c, err
		}
	}
	rq := func(opts ...gnn.QueryOption) func([]gnn.Point) (gnn.Cost, error) {
		return func(qs []gnn.Point) (gnn.Cost, error) {
			return q(ix, append(opts, gnn.WithRegion(goldenRegion(qs)))...)(qs)
		}
	}
	// iter8 charges the first eight results of an incremental scan.
	iter8 := func(g interface {
		GroupNNIterator([]gnn.Point, ...gnn.QueryOption) (*gnn.Iterator, error)
	}, region bool) func([]gnn.Point) (gnn.Cost, error) {
		return func(qs []gnn.Point) (gnn.Cost, error) {
			var opts []gnn.QueryOption
			if region {
				opts = append(opts, gnn.WithRegion(goldenRegion(qs)))
			}
			it, err := g.GroupNNIterator(qs, opts...)
			if err != nil {
				return gnn.Cost{}, err
			}
			defer it.Close()
			for i := 0; i < 8; i++ {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			return it.Cost(), nil
		}
	}
	fmbm := func(opts ...gnn.QueryOption) func([]gnn.Point) (gnn.Cost, error) {
		return func(qs []gnn.Point) (gnn.Cost, error) {
			set, err := gnn.NewQuerySet(qs, gnn.QuerySetConfig{BlockPoints: 16})
			if err != nil {
				return gnn.Cost{}, err
			}
			_, c, err := ix.GroupNNFromSetWithCost(set, gnn.DiskFMBM, append(opts, gnn.WithK(8))...)
			return c, err
		}
	}
	cells := []cell{
		{"MBM-BF/sum", q(ix, gnn.WithAlgorithm(gnn.AlgoMBM))},
		{"MBM-DF/sum", q(ix, gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst())},
		{"MQM/sum", q(ix, gnn.WithAlgorithm(gnn.AlgoMQM))},
		{"SPM-BF/sum", q(ix, gnn.WithAlgorithm(gnn.AlgoSPM))},
		{"SPM-DF/sum", q(ix, gnn.WithAlgorithm(gnn.AlgoSPM), gnn.WithDepthFirst())},
		{"MBM-BF/max", q(ix, gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist))},
		{"MBM-DF/max", q(ix, gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst(), gnn.WithAggregate(gnn.MaxDist))},
		{"MBM-BF/max-generic", q(ix, gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist), gnn.WithGenericMax())},
		{"MBM-DF/max-generic", q(ix, gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst(), gnn.WithAggregate(gnn.MaxDist), gnn.WithGenericMax())},
		{"sharded-MBM/max-generic", sq(gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist), gnn.WithGenericMax())},
		{"MQM/max", q(ix, gnn.WithAlgorithm(gnn.AlgoMQM), gnn.WithAggregate(gnn.MaxDist))},
		{"sharded-MBM/sum", sq(gnn.WithAlgorithm(gnn.AlgoMBM))},
		{"sharded-MBM/max", sq(gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist))},
		{"sharded-MQM/sum", sq(gnn.WithAlgorithm(gnn.AlgoMQM))},
		{"iterator-k8/sum", iter8(ix, false)},
		{"sharded-iter/sum", iter8(sx, false)},
		{"MBM-BF/sum/region", rq(gnn.WithAlgorithm(gnn.AlgoMBM))},
		{"MBM-DF/sum/region", rq(gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst())},
		{"SPM-BF/sum/region", rq(gnn.WithAlgorithm(gnn.AlgoSPM))},
		{"SPM-DF/sum/region", rq(gnn.WithAlgorithm(gnn.AlgoSPM), gnn.WithDepthFirst())},
		{"iterator-k8/sum/region", iter8(ix, true)},
		{"GCP/sum", func(qs []gnn.Point) (gnn.Cost, error) {
			qix, err := gnn.BuildIndex(qs, nil, gnn.IndexConfig{NodeCapacity: 16})
			if err != nil {
				return gnn.Cost{}, err
			}
			_, c, err := ix.GroupNNClosestPairsWithCost(qix, 0, gnn.WithK(8))
			return c, err
		}},
		{"F-MBM-BF/sum", fmbm()},
		{"F-MBM-DF/sum", fmbm(gnn.WithDepthFirst())},
	}

	for _, c := range cells {
		var total int64
		for _, qs := range queries {
			cost, err := c.run(qs)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			total += cost.NodeAccesses
		}
		want, ok := goldenNA[c.name]
		if !ok {
			t.Errorf("%s: no golden value; measured %d", c.name, total)
			continue
		}
		if total != want {
			t.Errorf("%s: node accesses changed: got %d, golden %d — a pruning regression "+
				"(or an intentional change that must update the golden table)",
				c.name, total, want)
		}
	}
}
