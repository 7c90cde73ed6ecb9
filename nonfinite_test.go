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
func disagreements(t *testing.T, g grouper, pts []gnn.Point, ids []int64, groups [][]gnn.Point, k int) int {
	t.Helper()
	bad := 0
	for _, qs := range groups {
		got, err := g.GroupNN(qs, gnn.WithK(k))
		if err != nil {
			t.Fatal(err)
		}
		want := oracleTopK(pts, ids, qs, gnn.SumDist, nil, k)
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
// rejects NaN and ±Inf on either axis with a *NonFiniteError naming the
// point and axis, and leaves the index unchanged.
func TestNonFiniteRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := randGroup(rng, 500)
	cfg := gnn.IndexConfig{NodeCapacity: 8}
	type target interface {
		Insert(gnn.Point, int64) error
		Len() int
		Stats() gnn.Stats
	}
	targets := map[string]func() target{
		"Index/packed": func() target {
			ix, err := gnn.BuildIndex(pts, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		"Index/never-packed": func() target {
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
		"ShardedIndex": func() target {
			sx, err := gnn.BuildShardedIndex(pts, nil, 3, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sx
		},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
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

// TestNonFiniteQueryRejected is the query-side table: a NaN or ±Inf
// coordinate on either axis of any group member is rejected with
// *gnn.NonFiniteError (naming the member and axis) by every query entry
// point of both index kinds, where a NaN member would otherwise yield k
// results with Dist NaN and a nil error. Mapped indexes and indexes with
// pending writes are covered too.
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

	type querier interface {
		GroupNN([]gnn.Point, ...gnn.QueryOption) ([]gnn.Result, error)
		GroupNNWithCost([]gnn.Point, ...gnn.QueryOption) ([]gnn.Result, gnn.Cost, error)
		GroupNNContext(context.Context, []gnn.Point, ...gnn.QueryOption) ([]gnn.Result, error)
		GroupNNWithCostContext(context.Context, []gnn.Point, ...gnn.QueryOption) ([]gnn.Result, gnn.Cost, error)
		GroupNNBatch([][]gnn.Point, ...gnn.QueryOption) []gnn.BatchResult
		GroupNNBatchContext(context.Context, [][]gnn.Point, ...gnn.QueryOption) ([]gnn.BatchResult, error)
		GroupNNExplain([]gnn.Point, ...gnn.QueryOption) ([]gnn.Result, *gnn.QueryExplain, error)
		GroupNNExplainContext(context.Context, []gnn.Point, ...gnn.QueryOption) ([]gnn.Result, *gnn.QueryExplain, error)
		GroupNNIterator([]gnn.Point, ...gnn.QueryOption) (*gnn.Iterator, error)
	}
	ctx := context.Background()
	entries := map[string]func(q querier, g []gnn.Point) error{
		"GroupNN": func(q querier, g []gnn.Point) error {
			_, err := q.GroupNN(g, gnn.WithK(3))
			return err
		},
		"GroupNNWithCost": func(q querier, g []gnn.Point) error {
			_, _, err := q.GroupNNWithCost(g, gnn.WithK(3))
			return err
		},
		"GroupNNContext": func(q querier, g []gnn.Point) error {
			_, err := q.GroupNNContext(ctx, g, gnn.WithK(3))
			return err
		},
		"GroupNNWithCostContext": func(q querier, g []gnn.Point) error {
			_, _, err := q.GroupNNWithCostContext(ctx, g, gnn.WithK(3))
			return err
		},
		"GroupNNBatch": func(q querier, g []gnn.Point) error {
			return q.GroupNNBatch([][]gnn.Point{g}, gnn.WithK(3))[0].Err
		},
		"GroupNNBatchContext": func(q querier, g []gnn.Point) error {
			out, err := q.GroupNNBatchContext(ctx, [][]gnn.Point{g}, gnn.WithK(3))
			if err != nil {
				return err
			}
			return out[0].Err
		},
		"GroupNNExplain": func(q querier, g []gnn.Point) error {
			_, _, err := q.GroupNNExplain(g, gnn.WithK(3))
			return err
		},
		"GroupNNExplainContext": func(q querier, g []gnn.Point) error {
			_, _, err := q.GroupNNExplainContext(ctx, g, gnn.WithK(3))
			return err
		},
		"GroupNNIterator": func(q querier, g []gnn.Point) error {
			it, err := q.GroupNNIterator(g)
			if err == nil {
				it.Close()
			}
			return err
		},
	}
	indexes := map[string]querier{"Index": ix, "ShardedIndex": sx, "Index/mapped": mapped, "Index/writes": written}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
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
			}
			for iname, q := range map[string]*gnn.Index{"Index": ix, "Index/mapped": mapped, "Index/writes": written} {
				_, err := q.NearestNeighbors(group[1], 3)
				check(iname+".NearestNeighbors", err, 0)
			}
		}
	}
}
