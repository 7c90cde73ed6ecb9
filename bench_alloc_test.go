// Allocation benchmarks of the query kernels: one warm GNN query per
// iteration through the public API, per algorithm×aggregate. Run with
//
//	go test -run=NONE -bench=GroupNNAllocs -benchmem
//
// allocs/op is the steady-state allocation count of one query; CI pins
// the MBM cells (both traversals) to ≤ 4. The same grid is snapshotted to
// BENCH_alloc.json by `gnnbench -allocs`.
package gnn_test

import (
	"testing"

	"gnn"
	"gnn/internal/dataset"
	"gnn/internal/workload"
)

// allocFixture builds the TS index (bench scale) and the paper's default
// workload (n = 64, M = 8%), shared by every sub-benchmark.
func allocFixture(b *testing.B) (*gnn.Index, [][]gnn.Point) {
	b.Helper()
	d, err := env().Dataset("TS")
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]gnn.Point, len(d.Points))
	for i, p := range d.Points {
		pts[i] = gnn.Point(p)
	}
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := workload.Generate(workload.Spec{
		N: 64, AreaFraction: 0.08, Queries: 16,
		Workspace: dataset.Workspace(), Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]gnn.Point, len(qs))
	for i, q := range qs {
		group := make([]gnn.Point, len(q.Points))
		for j, p := range q.Points {
			group[j] = gnn.Point(p)
		}
		queries[i] = group
	}
	return ix, queries
}

func BenchmarkGroupNNAllocs(b *testing.B) {
	ix, queries := allocFixture(b)
	cells := []struct {
		name string
		opts []gnn.QueryOption
	}{
		{"MBM-BF/sum", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM)}},
		{"MBM-DF/sum", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst()}},
		{"MBM-BF/max", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist)}},
		{"MBM-DF/min", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MinDist), gnn.WithDepthFirst()}},
		{"SPM/sum", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoSPM)}},
		{"MQM/sum", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM)}},
	}
	for _, cell := range cells {
		opts := append([]gnn.QueryOption{gnn.WithK(8)}, cell.opts...)
		b.Run(cell.name, func(b *testing.B) {
			// Warm the pools so the measurement sees steady state.
			for _, q := range queries {
				if _, err := ix.GroupNN(q, opts...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.GroupNN(queries[i%len(queries)], opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
