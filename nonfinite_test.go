package gnn_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"gnn"
)

// disagreements counts the groups whose k-NN SUM answer differs from the
// brute-force oracle over the live points pts with identifiers ids.
func disagreements(t *testing.T, g *gnn.Index, pts []gnn.Point, ids []int64, groups [][]gnn.Point, k int) int {
	t.Helper()
	bad := 0
	for _, qs := range groups {
		got, err := g.GroupNN(qs, gnn.WithK(k))
		if err != nil {
			t.Fatal(err)
		}
		want := oracleTopK(pts, ids, qs, gnn.SumDist, nil, k, nil)
		if len(got) != len(want) {
			bad++
			continue
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
				bad++
				break
			}
		}
	}
	return bad
}

// sliceIDs returns the identifiers 0..n-1.
func sliceIDs(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}

// TestNaNPointRegression replays the report that motivated the
// finiteness check: one NaN point among 20k uniform points, accepted by
// BuildIndex, made about one random SUM query in ten (n = 8, k = 4)
// disagree with brute force, because math.Min/math.Max carried the NaN
// into every MBR above it. The point must now be rejected at build and
// at insert, and the index over the finite points must stay exact
// through an overlay fold and a compaction.
func TestNaNPointRegression(t *testing.T) {
	const n, nanAt = 20000, 12345
	rng := rand.New(rand.NewSource(13))
	pts := randGroup(rng, n)
	groups := make([][]gnn.Point, 300)
	for i := range groups {
		groups[i] = queryGroup(rng, 8, 1000)
	}
	withNaN := append([]gnn.Point(nil), pts...)
	withNaN[nanAt] = gnn.Point{math.NaN(), 500}

	ix, err := gnn.BuildIndex(withNaN, nil, gnn.IndexConfig{})
	var nf *gnn.NonFiniteError
	if !errors.As(err, &nf) || nf.Index != nanAt || nf.Axis != 0 {
		if err == nil {
			// The failure this test guards against: answers over the
			// finite points go wrong.
			ids := sliceIDs(n)
			finite := append(append([]gnn.Point(nil), withNaN[:nanAt]...), withNaN[nanAt+1:]...)
			finiteIDs := append(append([]int64(nil), ids[:nanAt]...), ids[nanAt+1:]...)
			t.Fatalf("BuildIndex accepted a NaN point; %d of %d queries disagree with brute force",
				disagreements(t, ix, finite, finiteIDs, groups, 4), len(groups))
		}
		t.Fatalf("BuildIndex: err %v, want *NonFiniteError at point %d axis 0", err, nanAt)
	}

	ix, err = gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(gnn.Point{math.NaN(), 500}, n); !errors.As(err, &nf) {
		t.Fatalf("Insert of a NaN point: err %v, want *NonFiniteError", err)
	}
	// Enough finite inserts to fold the overlay into a delta tree, then a
	// compaction: neither may meet the rejected point.
	groups = groups[:60]
	live := append([]gnn.Point(nil), pts...)
	for i := 0; i < 300; i++ {
		p := gnn.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		if err := ix.Insert(p, int64(len(live))); err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
	}
	if bad := disagreements(t, ix, live, sliceIDs(len(live)), groups, 4); bad != 0 {
		t.Fatalf("overlay index: %d of %d queries disagree with brute force", bad, len(groups))
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if bad := disagreements(t, ix, live, sliceIDs(len(live)), groups, 4); bad != 0 {
		t.Fatalf("compacted index: %d of %d queries disagree with brute force", bad, len(groups))
	}
}

// TestNonFiniteRejected checks every way a point enters an index: each
// rejects NaN, ±Inf and a finite coordinate beyond ±1e150 on either axis
// with a *NonFiniteError naming the point and axis, and leaves the index
// unchanged.
func TestNonFiniteRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := randGroup(rng, 500)
	cfg := gnn.IndexConfig{NodeCapacity: 8}
	targets := map[string]func() *gnn.Index{
		"Index/packed": func() *gnn.Index {
			ix, err := gnn.BuildIndex(pts, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		"Index/never-packed": func() *gnn.Index {
			ix, err := gnn.NewIndex(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pts {
				if err := ix.Insert(p, int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			return ix
		},
		"Index/sharded": func() *gnn.Index {
			sx, err := gnn.BuildShardedIndex(pts, nil, 3, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sx
		},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e200} {
		for axis := 0; axis < 2; axis++ {
			p := gnn.Point{250, 750}
			p[axis] = bad
			in := append([]gnn.Point(nil), pts...)
			in[321] = p
			check := func(what string, err error, index int) {
				t.Helper()
				var nf *gnn.NonFiniteError
				if !errors.As(err, &nf) || nf.Index != index || nf.Axis != axis || !sameFloat(nf.Value, bad) {
					t.Errorf("%s with %v on axis %d: err %v", what, bad, axis, err)
				}
			}
			_, err := gnn.BuildIndex(in, nil, cfg)
			check("BuildIndex", err, 321)
			_, err = gnn.BuildShardedIndex(in, nil, 3, cfg)
			check("BuildShardedIndex", err, 321)
			for name, mk := range targets {
				x := mk()
				before := x.Stats()
				check(name+".Insert", x.Insert(p, 9999), 0)
				if after := x.Stats(); x.Len() != len(pts) || after != before {
					t.Errorf("%s: rejected insert changed the index: %+v -> %+v", name, before, after)
				}
			}
		}
	}
}

// sameFloat is equality that also holds between two NaNs.
func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// TestNonFiniteQueryRejected is the query-side table: a NaN, ±Inf or
// out-of-range coordinate on either axis of any group member is rejected
// with *gnn.NonFiniteError (naming the member and axis) by every query
// entry point of a plain and a sharded index, where a NaN member would
// otherwise yield k results with Dist NaN and a nil error. Mapped
// indexes and indexes with pending writes are covered too.
func TestNonFiniteQueryRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts := randGroup(rng, 400)
	cfg := gnn.IndexConfig{NodeCapacity: 8}
	ix, err := gnn.BuildIndex(pts, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := gnn.BuildShardedIndex(pts, nil, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := gnn.OpenSnapshotMapped(writeSnapFile(t, t.TempDir(), "ix.snap", ix.WriteSnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	written, err := gnn.BuildIndex(pts, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := written.Insert(gnn.Point{500, 500}, 9999); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	entries := map[string]func(q *gnn.Index, g []gnn.Point) error{
		"GroupNN": func(q *gnn.Index, g []gnn.Point) error {
			_, err := q.GroupNN(g, gnn.WithK(3))
			return err
		},
		"GroupNNWithCost": func(q *gnn.Index, g []gnn.Point) error {
			_, _, err := q.GroupNNWithCost(g, gnn.WithK(3))
			return err
		},
		"GroupNNContext": func(q *gnn.Index, g []gnn.Point) error {
			_, err := q.GroupNNContext(ctx, g, gnn.WithK(3))
			return err
		},
		"GroupNNWithCostContext": func(q *gnn.Index, g []gnn.Point) error {
			_, _, err := q.GroupNNWithCostContext(ctx, g, gnn.WithK(3))
			return err
		},
		"GroupNNBatch": func(q *gnn.Index, g []gnn.Point) error {
			return q.GroupNNBatch([][]gnn.Point{g}, gnn.WithK(3))[0].Err
		},
		"GroupNNBatchContext": func(q *gnn.Index, g []gnn.Point) error {
			out, err := q.GroupNNBatchContext(ctx, [][]gnn.Point{g}, gnn.WithK(3))
			if err != nil {
				return err
			}
			return out[0].Err
		},
		"GroupNNExplain": func(q *gnn.Index, g []gnn.Point) error {
			_, _, err := q.GroupNNExplain(g, gnn.WithK(3))
			return err
		},
		"GroupNNExplainContext": func(q *gnn.Index, g []gnn.Point) error {
			_, _, err := q.GroupNNExplainContext(ctx, g, gnn.WithK(3))
			return err
		},
		"GroupNNIterator": func(q *gnn.Index, g []gnn.Point) error {
			it, err := q.GroupNNIterator(g)
			if err == nil {
				it.Close()
			}
			return err
		},
	}
	indexes := map[string]*gnn.Index{"Index": ix, "Index/sharded": sx, "Index/mapped": mapped, "Index/writes": written}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200} {
		for axis := 0; axis < 2; axis++ {
			group := []gnn.Point{{100, 200}, {300, 400}, {250, 350}}
			group[1][axis] = bad
			check := func(what string, err error, member int) {
				t.Helper()
				var nf *gnn.NonFiniteError
				if !errors.As(err, &nf) || nf.Index != member || nf.Axis != axis || !sameFloat(nf.Value, bad) {
					t.Errorf("%s with %v on axis %d: err %v", what, bad, axis, err)
				}
			}
			for iname, q := range indexes {
				for ename, run := range entries {
					check(iname+"."+ename, run(q, group), 1)
				}
				_, err := q.NearestNeighbors(group[1], 3)
				check(iname+".NearestNeighbors", err, 0)
			}
		}
	}
}

// TestOutOfRangeCoordinatesRejected pins the magnitude bound. A finite
// coordinate beyond ±1e150 can square to +Inf, and the kernels prune any
// key equal to an +Inf bound: the group {(1e200, 0)} answered 0 of k = 3
// under MBM (1 under MQM), and an index over {(1e200, 0), (0, 0)} answered
// one of its two points. Every way such a coordinate reaches a kernel now
// fails with *gnn.NonFiniteError naming it, on a plain and a 4-shard
// index alike, while coordinates at ±1e150 still answer exactly.
func TestOutOfRangeCoordinatesRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pts := randGroup(rng, 500)
	plain, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := gnn.BuildShardedIndex(pts, nil, 4, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	groupNN := func(opts ...gnn.QueryOption) func(*gnn.Index, []gnn.Point) error {
		return func(ix *gnn.Index, g []gnn.Point) error {
			_, err := ix.GroupNN(g, append([]gnn.QueryOption{gnn.WithK(3)}, opts...)...)
			return err
		}
	}
	for _, far := range []float64{1e200, -1e155, math.Nextafter(1e150, math.Inf(1))} {
		group := []gnn.Point{{500, 500}, {far, 0}}
		check := func(what string, err error, index int) {
			t.Helper()
			var nf *gnn.NonFiniteError
			if !errors.As(err, &nf) || nf.Index != index || nf.Axis != 0 || nf.Value != far {
				t.Errorf("%s with %v: err %v, want *NonFiniteError at point %d axis 0", what, far, err, index)
			}
		}
		in := append(append([]gnn.Point(nil), pts...), gnn.Point{far, 0})
		_, err := gnn.BuildIndex(in, nil, gnn.IndexConfig{})
		check("BuildIndex", err, len(pts))
		_, err = gnn.BuildShardedIndex(in, nil, 4, gnn.IndexConfig{})
		check("BuildShardedIndex", err, len(pts))
		for iname, ix := range map[string]*gnn.Index{"plain": plain, "sharded": sharded} {
			for _, c := range []struct {
				name string
				run  func(*gnn.Index, []gnn.Point) error
			}{
				{"MQM", groupNN(gnn.WithAlgorithm(gnn.AlgoMQM))},
				{"SPM", groupNN(gnn.WithAlgorithm(gnn.AlgoSPM))},
				{"MBM-BF", groupNN(gnn.WithAlgorithm(gnn.AlgoMBM))},
				{"MBM-DF", groupNN(gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst())},
				{"MBM-BF/max", groupNN(gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist))},
				{"brute", groupNN(gnn.WithAlgorithm(gnn.AlgoBruteForce))},
				{"iterator", func(ix *gnn.Index, g []gnn.Point) error {
					it, err := ix.GroupNNIterator(g)
					if err == nil {
						it.Close()
					}
					return err
				}},
				{"batch", func(ix *gnn.Index, g []gnn.Point) error {
					return ix.GroupNNBatch([][]gnn.Point{g}, gnn.WithK(3))[0].Err
				}},
			} {
				check(iname+"/"+c.name, c.run(ix, group), 1)
			}
			_, err := ix.NearestNeighbors(group[1], 3)
			check(iname+"/NearestNeighbors", err, 0)
			check(iname+"/Insert", ix.Insert(group[1], 9999), 0)
			if ix.Len() != len(pts) {
				t.Fatalf("%s: a rejected insert changed the index to %d points", iname, ix.Len())
			}
		}
	}

	// The bound itself is accepted, and its distances stay finite.
	edge := []gnn.Point{{1e150, -1e150}, {0, 0}}
	for _, build := range []func() (*gnn.Index, error){
		func() (*gnn.Index, error) { return gnn.BuildIndex(edge, nil, gnn.IndexConfig{}) },
		func() (*gnn.Index, error) { return gnn.BuildShardedIndex(edge, nil, 2, gnn.IndexConfig{}) },
	} {
		ix, err := build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := ix.GroupNN([]gnn.Point{{-1e150, 1e150}}, gnn.WithK(2))
		if err != nil || len(res) != 2 || math.IsInf(res[1].Dist, 0) {
			t.Fatalf("group at the bound: %v (err %v), want both points at finite distances", res, err)
		}
		ix.Close()
	}
}
