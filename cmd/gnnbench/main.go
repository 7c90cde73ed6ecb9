// Command gnnbench regenerates the paper's experimental figures.
//
// Each figure of §5 (and each ablation, A1–A3) is reproduced as a pair
// of aligned tables — node accesses and CPU time — with one row per
// algorithm and one column per x-axis value, matching the series the
// paper plots.
//
// Usage:
//
//	gnnbench -fig 5.1              # one figure at paper scale
//	gnnbench -all -scale 0.1       # everything, 10% of the data
//	gnnbench -list                 # available experiment IDs
//
// Paper-scale runs (default scale 1.0) rebuild PP (24,493 points) and TS
// (194,971 points) and may take minutes for the disk-resident figures; use
// -scale 0.1 for a quick pass that preserves every qualitative shape.
//
// gnnbench reproduces figures only. The serving benchmark, which drives
// the real gnnserve daemon with checked answers, is perfbench/ (see
// BENCHMARK.json); the kernel's allocation and overhead contracts are Go
// tests (go test -run 'TestHotPath|TestExplainOverhead' .).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gnn/internal/experiments"
)

func main() {
	var (
		fig     = flag.String("fig", "", "experiment ID to run (e.g. 5.1, 5.4, A1)")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = paper size)")
		queries = flag.Int("queries", 100, "queries per workload (memory-resident figures)")
		seed    = flag.Int64("seed", 1, "generator seed")
		buffer  = flag.Int("buffer", 512, "LRU buffer pages per tree/file (0 = none)")
		budget  = flag.Int64("gcp-budget", 20_000_000, "GCP pair budget before a cell is DNF")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments:", strings.Join(experiments.IDs(), " "))
		return
	}
	if !*all && *fig == "" {
		fmt.Fprintln(os.Stderr, "usage: gnnbench -fig <id> | -all | -list")
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
