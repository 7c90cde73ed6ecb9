package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/rtree"
)

// TestGroupPreparedOncePerQuery runs a MAX query (MBM, both traversals)
// and an SPM query over four partitions of one point set the way a
// sharded query does: one Share, then every partition's kernel on a
// context of its own under it, sequentially and on four concurrent
// workers. No partition prepares a group of its own, so none solves an
// enclosing ball or a centroid, and the shared group has solved its own
// once (a sync.Once that has fired runs nothing more). The merged answer
// carries the single tree's distances.
func TestGroupPreparedOncePerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := clusteredPts(rng, 4000, 1000)
	whole := buildTree(t, pts, 16)
	parts := make([]*rtree.Packed, 4)
	for i := range parts {
		parts[i] = buildTree(t, pts[i*len(pts)/4:(i+1)*len(pts)/4], 16)
	}
	qs := make([]geom.Point, 64)
	for i := range qs {
		qs[i] = geom.Point{400 + rng.Float64()*80, 400 + rng.Float64()*80}
	}
	derived := map[string]func(*group) *sync.Once{
		"enclosing ball": func(g *group) *sync.Once { return &g.mebOnce },
		"centroid":       func(g *group) *sync.Once { return &g.cenOnce },
	}
	cases := []struct {
		name, derives string
		kernel        func(*rtree.Tree, []geom.Point, Options) ([]GroupNeighbor, error)
		opt           Options
	}{
		{"MBM-BF/max", "enclosing ball", MBM, Options{K: 8, Aggregate: Max}},
		{"MBM-DF/max", "enclosing ball", MBM, Options{K: 8, Aggregate: Max, Traversal: DepthFirst}},
		{"SPM/sum", "centroid", SPM, Options{K: 8}},
	}
	for _, c := range cases {
		want, err := on(whole, c.kernel, qs, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			cell := fmt.Sprintf("%s/workers=%d", c.name, workers)
			query := AcquireExec() // the query's own context, which holds the shared state
			shared, err := query.Share(qs, 2, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			lists := make([][]GroupNeighbor, len(parts))
			errs := make([]error, len(parts))
			RunPooled(len(parts), workers, func(i int, ec *ExecContext) {
				o := c.opt
				o.Shared, o.Exec = shared, ec
				lists[i], errs[i] = on(parts[i], c.kernel, qs, o)
				if errs[i] == nil && len(ec.grp.qs) != 0 {
					errs[i] = fmt.Errorf("partition %d prepared a group of its own", i)
				}
			})
			for _, err := range errs {
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
			}
			derived[c.derives](&shared.grp).Do(func() {
				t.Errorf("%s: the shared group never solved its %s", cell, c.derives)
			})
			got := MergeNeighbors(c.opt.K, lists)
			if len(got) != len(want) {
				t.Fatalf("%s: %d results, want %d", cell, len(got), len(want))
			}
			for i := range want {
				if got[i].Dist != want[i].Dist {
					t.Fatalf("%s rank %d: dist %v, single tree %v", cell, i, got[i].Dist, want[i].Dist)
				}
			}
			query.Release()
		}
	}
}

// TestIteratorReadsSharedGroup: an iterator opened under a shared group
// prepared from its query reads that group and prepares none; under one
// prepared from other points it prepares its own.
func TestIteratorReadsSharedGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	tr := buildTree(t, randPts(rng, 500, 100), 8)
	qs := randPts(rng, 5, 100)
	opt := Options{Aggregate: Max}
	ec := AcquireExec()
	defer ec.Release()
	shared, err := ec.Share(qs, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Shared = shared
	it, err := iterOn(tr, qs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if it.grp != &shared.grp || len(it.own.qs) != 0 || it.meb != &shared.grp.meb {
		t.Fatal("iterator did not read the shared group")
	}
	it.Close()
	other := append([]geom.Point(nil), qs...) // the same coordinates, other members
	other[2] = other[2].Clone()
	it, err = iterOn(tr, other, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if it.grp != &it.own || len(it.own.qs) != len(other) {
		t.Fatal("iterator read a group prepared from other points")
	}
}
