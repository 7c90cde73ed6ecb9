// Throughput benchmark of the parallel batch query engine: the same
// workload answered by GroupNNBatch under worker counts 1/2/4/NumCPU.
// Reports qps (queries per second); read a speedup together with the
// host's CPU count, since on one CPU flat scaling is the expected result.
package gnn_test

import (
	"fmt"
	"runtime"
	"testing"

	"gnn"
	"gnn/internal/dataset"
	"gnn/internal/workload"
)

func BenchmarkGroupNNParallel(b *testing.B) {
	d, err := env().Dataset("TS")
	if err != nil {
		b.Fatal(err)
	}
	ix, err := gnn.BuildIndex(publicPoints(d.Points), nil, gnn.IndexConfig{})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := workload.Generate(workload.Spec{
		N: 64, AreaFraction: 0.08, Queries: 64,
		Workspace: dataset.Workspace(), Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	queries := publicGroups(qs)

	workers := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := ix.GroupNNBatch(queries, gnn.WithK(8), gnn.WithParallelism(w))
				for _, r := range out {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.StopTimer()
			total := float64(b.N) * float64(len(queries))
			b.ReportMetric(total/b.Elapsed().Seconds(), "qps")
		})
	}
}
