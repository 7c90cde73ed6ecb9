// Command gnnbench regenerates the paper's experimental figures.
//
// Each figure of §5 (and each ablation documented in DESIGN.md) is
// reproduced as a pair of aligned tables — node accesses and CPU time —
// with one row per algorithm and one column per x-axis value, matching the
// series the paper plots.
//
// Usage:
//
//	gnnbench -fig 5.1              # one figure at paper scale
//	gnnbench -all -scale 0.1       # everything, 10% of the data
//	gnnbench -list                 # available experiment IDs
//	gnnbench -parallel 8           # batch-engine throughput, 8 workers
//	gnnbench -allocs               # ns/op + allocs/op per algorithm×aggregate
//	gnnbench -maxagg               # dedicated vs generic aggregate-MAX kernel
//	gnnbench -telemetry            # plain vs explain-instrumented query overhead
//	gnnbench -snapshot             # cold-start: snapshot load vs rebuild
//
// Paper-scale runs (default scale 1.0) rebuild PP (24,493 points) and TS
// (194,971 points) and may take minutes for the disk-resident figures; use
// -scale 0.1 for a quick pass that preserves every qualitative shape.
//
// The -parallel N mode measures the concurrent batch query engine instead
// of reproducing a figure: it sweeps worker counts 1/2/4/NumCPU (plus N)
// over a fixed workload, reports queries/sec and steady-state allocations
// per query per worker count, and with -parallel-out writes the sweep as a
// JSON snapshot for tracking scaling across revisions.
//
// The -allocs mode measures the query kernels themselves: ns/op, allocs/op,
// B/op and node accesses per algorithm×aggregate on a warm index, written
// as JSON with -allocs-out (BENCH_alloc.json); -allocs-baseline embeds a
// previous snapshot so the trajectory is visible in one file.
//
// The -maxagg mode compares the dedicated aggregate-MAX kernel (minimum-
// enclosing-ball pruning) against the generic per-member path on a 100k
// uniform workload across group size × k × traversal, written as JSON
// with -maxagg-out (BENCH_max.json) and gated by cmd/benchdelta -max.
//
// The -snapshot mode measures cold start: bulk-loading a 100k-point index
// from raw points versus loading the equivalent persisted snapshot
// (README "Persistence"), for the plain and the sharded index, verifying
// bit-identical answers along the way; -snapshot-out writes
// BENCH_snapshot.json with format/layout provenance. Adding -mmap also
// measures the zero-copy open path (OpenSnapshotMapped): open latency,
// retained-heap footprint and serving throughput against the copying
// load of the same files.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"gnn"
	"gnn/internal/dataset"
	"gnn/internal/experiments"
	"gnn/internal/workload"
)

func main() {
	var (
		fig      = flag.String("fig", "", "experiment ID to run (e.g. 5.1, 5.4, A1)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = paper size)")
		queries  = flag.Int("queries", 100, "queries per workload (memory-resident figures)")
		seed     = flag.Int64("seed", 1, "generator seed")
		buffer   = flag.Int("buffer", 512, "LRU buffer pages per tree/file (0 = none)")
		budget   = flag.Int64("gcp-budget", 20_000_000, "GCP pair budget before a cell is DNF")
		parallel = flag.Int("parallel", 0, "throughput mode: sweep batch workers up to N (0 = off)")
		pout     = flag.String("parallel-out", "", "write the -parallel sweep as JSON to this file")
		shards   = flag.Int("shards", 0, "sharded mode: sweep shard counts up to N against the unsharded baseline (0 = off)")
		sout     = flag.String("shards-out", "", "write the -shards sweep as JSON to this file")
		allocs   = flag.Bool("allocs", false, "allocation mode: ns/op and allocs/op per algorithm×aggregate")
		aout     = flag.String("allocs-out", "", "write the -allocs snapshot as JSON to this file")
		abase    = flag.String("allocs-baseline", "", "embed a previous -allocs snapshot as the baseline")
		telem    = flag.Bool("telemetry", false, "telemetry-overhead mode: plain GroupNN vs GroupNNExplain on the warm packed MBM kernel")
		tout     = flag.String("telemetry-out", "", "write the -telemetry measurement as JSON to this file (BENCH_telemetry.json)")
		maxagg   = flag.Bool("maxagg", false, "MAX-kernel mode: dedicated MEB pruning vs the generic path on a uniform workload")
		maxN     = flag.Int("maxagg-n", 100_000, "points for the -maxagg uniform fixture")
		mxout    = flag.String("maxagg-out", "", "write the -maxagg comparison as JSON to this file (BENCH_max.json)")
		snapMode = flag.Bool("snapshot", false, "cold-start mode: snapshot load vs rebuild time")
		snapN    = flag.Int("snapshot-n", 100_000, "points for the -snapshot cold-start index")
		snout    = flag.String("snapshot-out", "", "write the -snapshot measurement as JSON to this file")
		snapMmap = flag.Bool("mmap", false, "with -snapshot: also measure the zero-copy mmap open path")
		serveB   = flag.Bool("serve-bench", false, "serving mode: drive HTTP load against gnnserve, sweeping client counts")
		serveURL = flag.String("serve-url", "", "with -serve-bench: target a live gnnserve (default: in-process daemon over a generated snapshot)")
		serveC   = flag.Int("serve-clients", 16, "with -serve-bench: max concurrent clients (sweeps powers of two up to this)")
		serveDur = flag.Duration("serve-duration", 2*time.Second, "with -serve-bench: measurement window per client count")
		svout    = flag.String("serve-out", "", "write the -serve-bench sweep as JSON to this file")
		svbase   = flag.String("serve-baseline", "", "embed a previous -serve-bench sweep as the baseline (overhead delta)")
		mutateB  = flag.Bool("mutate", false, "mutation mode: query throughput under live insert/delete traffic, sweeping write rates × compaction thresholds")
		mutDur   = flag.Duration("mutate-duration", 2*time.Second, "with -mutate: measurement window per row")
		mout     = flag.String("mutate-out", "", "write the -mutate sweep as JSON to this file")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments:", strings.Join(experiments.IDs(), " "))
		return
	}
	if *snapMmap && !*snapMode {
		fmt.Fprintln(os.Stderr, "gnnbench: -mmap modifies -snapshot; add -snapshot")
		os.Exit(2)
	}
	if *serveB {
		if err := runServeBench(*serveURL, *serveC, *serveDur, *scale, *queries, *seed, *svout, *svbase); err != nil {
			fmt.Fprintln(os.Stderr, "gnnbench:", err)
			os.Exit(1)
		}
		return
	}
	if *mutateB {
		if err := runMutate(*scale, *queries, *seed, *mutDur, *mout); err != nil {
			fmt.Fprintln(os.Stderr, "gnnbench:", err)
			os.Exit(1)
		}
		return
	}
	if *snapMode {
		if err := runSnapshotBench(*snapN, *seed, *snout, *snapMmap); err != nil {
			fmt.Fprintln(os.Stderr, "gnnbench:", err)
			os.Exit(1)
		}
		return
	}
	if *allocs {
		if err := runAllocs(*scale, *queries, *seed, *aout, *abase); err != nil {
			fmt.Fprintln(os.Stderr, "gnnbench:", err)
			os.Exit(1)
		}
		return
	}
	if *telem {
		if err := runTelemetry(*scale, *queries, *seed, *tout); err != nil {
			fmt.Fprintln(os.Stderr, "gnnbench:", err)
			os.Exit(1)
		}
		return
	}
	if *maxagg {
		if err := runMaxAgg(*maxN, *queries, *seed, *mxout); err != nil {
			fmt.Fprintln(os.Stderr, "gnnbench:", err)
			os.Exit(1)
		}
		return
	}
	if *parallel > 0 {
		if err := runParallel(*parallel, *scale, *queries, *seed, *pout); err != nil {
			fmt.Fprintln(os.Stderr, "gnnbench:", err)
			os.Exit(1)
		}
		return
	}
	if *shards > 0 {
		if err := runShards(*shards, *scale, *queries, *seed, *sout); err != nil {
			fmt.Fprintln(os.Stderr, "gnnbench:", err)
			os.Exit(1)
		}
		return
	}
	if !*all && *fig == "" {
		fmt.Fprintln(os.Stderr, "usage: gnnbench -fig <id> | -all | -list | -parallel N | -shards N")
		flag.PrintDefaults()
		os.Exit(2)
	}
	env := experiments.NewEnv(experiments.Config{
		Scale:         *scale,
		Queries:       *queries,
		Seed:          *seed,
		BufferPages:   *buffer,
		GCPPairBudget: *budget,
	})
	fmt.Printf("# gnn benchmark harness — scale %g, %d queries/workload, seed %d\n\n",
		*scale, *queries, *seed)
	var err error
	if *all {
		err = experiments.RunAll(env, os.Stdout)
	} else {
		err = experiments.Run(env, *fig, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gnnbench:", err)
		os.Exit(1)
	}
}

// parallelSnapshot is the JSON schema of the -parallel-out file; the
// shared headers live in emit.go.
type parallelSnapshot struct {
	benchEnv
	benchWorkload
	Results []parallelPoint `json:"results"`
}

type parallelPoint struct {
	Workers    int     `json:"workers"`
	QueriesSec float64 `json:"queries_per_sec"`
	Seconds    float64 `json:"seconds"`
	Speedup    float64 `json:"speedup_vs_1"`
	// AllocsPerQuery is the steady-state heap allocation count per query
	// (measured on the warm pass), the number the zero-allocation kernel
	// work drives down; per-worker context reuse should keep it flat as
	// workers grow.
	AllocsPerQuery float64 `json:"allocs_per_query"`
}

// benchGroupSize and benchK are the paper's default workload parameters
// (n = 64, M = 8%, k = 8) shared by the -parallel and -allocs modes.
const benchGroupSize, benchK = 64, 8

// benchFixture builds the shared fixture of the throughput and allocation
// modes: the TS index at the requested scale plus a workload of GNN query
// groups. Both modes must measure the identical setup or their snapshots
// stop being comparable.
func benchFixture(scale float64, numQueries int, seed int64) (*dataset.Dataset, *gnn.Index, [][]gnn.Point, error) {
	d := dataset.GenerateTS(seed)
	if scale < 1 {
		n := int(float64(len(d.Points)) * scale)
		if n < 1 {
			n = 1
		}
		d = &dataset.Dataset{Name: d.Name, Points: d.Points[:n]}
	}
	pts := make([]gnn.Point, len(d.Points))
	for i, p := range d.Points {
		pts[i] = gnn.Point(p)
	}
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		return nil, nil, nil, err
	}
	qs, err := workload.Generate(workload.Spec{
		N: benchGroupSize, AreaFraction: 0.08, Queries: numQueries,
		Workspace: dataset.Workspace(), Seed: seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	batch := make([][]gnn.Point, len(qs))
	for i, q := range qs {
		group := make([]gnn.Point, len(q.Points))
		for j, p := range q.Points {
			group[j] = gnn.Point(p)
		}
		batch[i] = group
	}
	return d, ix, batch, nil
}

// runParallel measures the batch engine's throughput: worker counts
// 1/2/4/NumCPU (plus the requested maximum) answering the same workload of
// GNN queries (n = 64, M = 8%, k = 8 — the paper's defaults) over TS.
func runParallel(maxWorkers int, scale float64, numQueries int, seed int64, outPath string) error {
	d, ix, batch, err := benchFixture(scale, numQueries, seed)
	if err != nil {
		return err
	}
	const groupSize, k = benchGroupSize, benchK

	sweep := map[int]bool{1: true, 2: true, 4: true, runtime.NumCPU(): true, maxWorkers: true}
	workers := make([]int, 0, len(sweep))
	for w := range sweep {
		if w <= maxWorkers {
			workers = append(workers, w)
		}
	}
	sort.Ints(workers)

	snap := parallelSnapshot{
		benchEnv:      newBenchEnv(d.Name, ix.Len(), scale),
		benchWorkload: newBenchWorkload(len(batch)),
	}
	fmt.Printf("# batch query engine throughput — %s (%d points), %d queries of n=%d, k=%d\n\n",
		d.Name, ix.Len(), len(batch), groupSize, k)
	fmt.Printf("%-8s  %12s  %10s  %8s  %14s\n", "workers", "queries/sec", "seconds", "speedup", "allocs/query")
	var base float64
	for _, w := range workers {
		// One warm-up pass, then the measured pass.
		ix.GroupNNBatch(batch, gnn.WithK(k), gnn.WithParallelism(w))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out := ix.GroupNNBatch(batch, gnn.WithK(k), gnn.WithParallelism(w))
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		for _, r := range out {
			if r.Err != nil {
				return r.Err
			}
		}
		qps := float64(len(batch)) / elapsed.Seconds()
		if base == 0 {
			base = qps
		}
		pt := parallelPoint{
			Workers: w, QueriesSec: qps,
			Seconds: elapsed.Seconds(), Speedup: qps / base,
			AllocsPerQuery: float64(after.Mallocs-before.Mallocs) / float64(len(batch)),
		}
		snap.Results = append(snap.Results, pt)
		fmt.Printf("%-8d  %12.1f  %10.3f  %7.2fx  %14.1f\n", w, qps, pt.Seconds, pt.Speedup, pt.AllocsPerQuery)
	}
	return writeBenchJSON(outPath, snap)
}
