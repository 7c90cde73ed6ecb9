package gnn_test

import (
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
