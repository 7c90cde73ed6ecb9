package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"gnn"
)

// allocSnapshot is the JSON schema of the -allocs-out file. It records the
// per-query CPU and allocation cost of every algorithm×aggregate kernel so
// the performance trajectory of the query hot paths is trackable across
// revisions. When a previous snapshot is supplied via -allocs-baseline, it
// is embedded under "baseline" so the win (or regression) is visible in one
// file.
type allocSnapshot struct {
	benchEnv
	benchWorkload
	Baseline []allocCell `json:"baseline,omitempty"`
	Cells    []allocCell `json:"cells"`
}

type allocCell struct {
	Algorithm string  `json:"algorithm"`
	Aggregate string  `json:"aggregate"`
	NsPerOp   float64 `json:"ns_per_op"`
	AllocsOp  float64 `json:"allocs_per_op"`
	BytesOp   float64 `json:"bytes_per_op"`
	NAPerOp   float64 `json:"na_per_op"`
}

// allocGridCell is one measured kernel configuration.
type allocGridCell struct {
	algo string
	agg  gnn.Aggregate
	opts []gnn.QueryOption
}

// allocGrid is the algorithm×aggregate matrix the snapshot measures: every
// memory-resident kernel under every aggregate its pruning bounds support.
func allocGrid() []allocGridCell {
	var grid []allocGridCell
	for _, agg := range []gnn.Aggregate{gnn.SumDist, gnn.MaxDist, gnn.MinDist} {
		grid = append(grid,
			allocGridCell{"MBM-BF", agg, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(agg)}},
			allocGridCell{"MBM-DF", agg, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(agg), gnn.WithDepthFirst()}},
			allocGridCell{"MQM", agg, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM), gnn.WithAggregate(agg)}},
		)
	}
	grid = append(grid, allocGridCell{"SPM", gnn.SumDist, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoSPM)}})
	return grid
}

// runAllocs measures ns/op, allocs/op, B/op and NA/op per kernel cell
// over the paper's default workload (n = 64, M = 8%, k = 8) on TS — the
// same fixture the -parallel mode measures, via benchFixture.
func runAllocs(scale float64, numQueries int, seed int64, outPath, baselinePath string) error {
	d, ix, queries, err := benchFixture(scale, numQueries, seed)
	if err != nil {
		return err
	}
	const groupSize, k = benchGroupSize, benchK

	snap := allocSnapshot{
		benchEnv:      newBenchEnv(d.Name, ix.Len(), scale),
		benchWorkload: newBenchWorkload(len(queries)),
	}
	if baselinePath != "" {
		data, err := os.ReadFile(baselinePath)
		if err != nil {
			return fmt.Errorf("reading baseline snapshot: %w", err)
		}
		var base allocSnapshot
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("parsing baseline snapshot: %w", err)
		}
		snap.Baseline = base.Cells
	}

	fmt.Printf("# query kernel cost — %s (%d points), %d queries of n=%d, k=%d\n\n",
		d.Name, ix.Len(), len(queries), groupSize, k)
	fmt.Printf("%-8s  %-4s  %12s  %12s  %12s  %10s\n",
		"algo", "agg", "ns/op", "allocs/op", "B/op", "na/op")
	measure := func(cell allocGridCell) (allocCell, error) {
		opts := append([]gnn.QueryOption{gnn.WithK(k)}, cell.opts...)
		// Warm-up pass: fills buffer-free caches, pools and grows scratch to
		// steady-state capacity so the measurement sees the warm path.
		for _, q := range queries {
			if _, err := ix.GroupNN(q, opts...); err != nil {
				return allocCell{}, fmt.Errorf("%s/%s: %w", cell.algo, cell.agg, err)
			}
		}
		ix.ResetCost()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		// Adaptive rounds: at least 3, then keep going until the cell has
		// run long enough to dampen scheduler noise (cheap MBM cells would
		// otherwise finish in tens of milliseconds and jitter by 20%+).
		const minRounds, maxRounds, minWall = 3, 40, 500 * time.Millisecond
		rounds := 0
		for rounds < minRounds || (time.Since(start) < minWall && rounds < maxRounds) {
			for _, q := range queries {
				if _, err := ix.GroupNN(q, opts...); err != nil {
					return allocCell{}, fmt.Errorf("%s/%s: %w", cell.algo, cell.agg, err)
				}
			}
			rounds++
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		total := float64(rounds * len(queries))
		return allocCell{
			Algorithm: cell.algo,
			Aggregate: cell.agg.String(),
			NsPerOp:   float64(elapsed.Nanoseconds()) / total,
			AllocsOp:  float64(after.Mallocs-before.Mallocs) / total,
			BytesOp:   float64(after.TotalAlloc-before.TotalAlloc) / total,
			NAPerOp:   float64(ix.Cost().LogicalAccesses) / total,
		}, nil
	}
	for _, cell := range allocGrid() {
		c, err := measure(cell)
		if err != nil {
			return err
		}
		snap.Cells = append(snap.Cells, c)
		fmt.Printf("%-8s  %-4s  %12.0f  %12.1f  %12.1f  %10.1f\n",
			c.Algorithm, c.Aggregate, c.NsPerOp, c.AllocsOp, c.BytesOp, c.NAPerOp)
	}
	return writeBenchJSON(outPath, snap)
}
