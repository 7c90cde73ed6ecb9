// Allocation benchmarks of the query kernels: one warm GNN query per
// iteration through the public API, per algorithm×aggregate. Run with
//
//	go test -run=NONE -bench=GroupNNAllocs -benchmem
//
// allocs/op is the steady-state allocation count of one query.
// TestHotPathAllocs (hotpath_test.go) pins the MBM cells (both
// traversals) to exactly 4 on the same fixture.
package gnn_test

import (
	"testing"

	"gnn"
	"gnn/internal/dataset"
	"gnn/internal/geom"
	"gnn/internal/workload"
)

// allocFixture builds the TS index (bench scale) and the paper's default
// workload (n = 64, M = 8%), shared by every sub-benchmark and by the
// hot-path tests.
func allocFixture(b testing.TB) (*gnn.Index, [][]gnn.Point) {
	b.Helper()
	d, err := env().Dataset("TS")
	if err != nil {
		b.Fatal(err)
	}
	ix, err := gnn.BuildIndex(publicPoints(d.Points), nil, gnn.IndexConfig{})
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
	return ix, publicGroups(qs)
}

// publicPoints converts generated points to the public point type.
func publicPoints(ps []geom.Point) []gnn.Point {
	out := make([]gnn.Point, len(ps))
	for i, p := range ps {
		out[i] = gnn.Point(p)
	}
	return out
}

// publicGroups converts a generated workload to public query groups.
func publicGroups(qs []workload.Query) [][]gnn.Point {
	out := make([][]gnn.Point, len(qs))
	for i, q := range qs {
		out[i] = publicPoints(q.Points)
	}
	return out
}

// allocCells is the algorithm×aggregate grid of BenchmarkGroupNNAllocs;
// every cell queries with k = 8.
var allocCells = []struct {
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

func BenchmarkGroupNNAllocs(b *testing.B) {
	ix, queries := allocFixture(b)
	for _, cell := range allocCells {
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
