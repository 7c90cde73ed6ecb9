package gnn_test

import (
	"fmt"
	"testing"

	"gnn"
	"gnn/internal/dataset"
	"gnn/internal/workload"
)

// TestMaxKernelPrunesBelowGeneric pins the dedicated aggregate-MAX
// kernel's pruning contract (the minimum-enclosing-ball bound, after
// Wang, arXiv:1309.1807) on a 100k-point uniform grid: on every cell of
// group size × k × traversal it reads at most as many nodes per query as
// the generic per-member path, and over the grid strictly fewer. The
// bound only ever removes candidates, so "at most" must hold everywhere;
// "strictly fewer" is the kernel earning its keep. Node accesses are
// deterministic for the fixed fixture, so the check is exact.
func TestMaxKernelPrunesBelowGeneric(t *testing.T) {
	const numPoints, numQueries, seed = 100_000, 60, 1
	d := dataset.GenerateUniform("uniform-100k", numPoints, seed)
	ix, err := gnn.BuildIndex(publicPoints(d.Points), nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// naPerQuery answers the cell's queries and returns their mean NA.
	naPerQuery := func(queries [][]gnn.Point, opts []gnn.QueryOption) float64 {
		var total gnn.Cost
		for _, q := range queries {
			_, c, err := ix.GroupNNWithCost(q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			total.Add(c)
		}
		return float64(total.LogicalAccesses) / float64(len(queries))
	}

	var dedTotal, genTotal float64
	for _, n := range []int{4, 16, 64} {
		qs, err := workload.Generate(workload.Spec{
			N: n, AreaFraction: 0.08, Queries: numQueries,
			Workspace: dataset.Workspace(), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		queries := publicGroups(qs)
		for _, k := range []int{1, 8} {
			for _, df := range []bool{false, true} {
				opts := []gnn.QueryOption{gnn.WithK(k), gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist)}
				trv := "bf"
				if df {
					opts = append(opts, gnn.WithDepthFirst())
					trv = "df"
				}
				ded := naPerQuery(queries, opts)
				gen := naPerQuery(queries, append(opts, gnn.WithGenericMax()))
				dedTotal += ded
				genTotal += gen
				cell := fmt.Sprintf("n=%d k=%d %s", n, k, trv)
				t.Logf("%-14s dedicated %7.1f  generic %7.1f NA/query", cell, ded, gen)
				if ded > gen {
					t.Errorf("%s: dedicated MAX kernel reads %.1f NA/query, generic %.1f", cell, ded, gen)
				}
			}
		}
	}
	t.Logf("total NA/query: dedicated %.1f, generic %.1f", dedTotal, genTotal)
	if dedTotal >= genTotal {
		t.Errorf("dedicated MAX kernel does not beat the generic path in total: %.1f vs %.1f", dedTotal, genTotal)
	}
}
