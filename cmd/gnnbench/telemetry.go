package main

import (
	"fmt"
	"runtime"
	"time"

	"gnn"
)

// The -telemetry mode proves the observability work costs nothing on the
// hot path. It measures the warm packed MBM kernel (the serving default)
// two ways in the same process — the plain GroupNN entry point and the
// instrumented GroupNNExplain entry point — and snapshots both sides so
// cmd/benchdelta -telemetry can gate two claims:
//
//  1. plain GroupNN still runs at its committed allocs/op (4) with all
//     the telemetry code compiled in, and
//  2. opting into an explain trace costs a bounded ns/op premium.
//
// Both sides are measured in alternating passes within one run, so the
// ratio between them is immune to machine-to-machine speed differences;
// per-side minimums over the passes damp scheduler noise.

type telemetrySnapshot struct {
	benchEnv
	benchWorkload
	Kind   string        `json:"kind"`
	Plain  telemetrySide `json:"plain"`
	Traced telemetrySide `json:"traced"`
	// TracedNsRatio is traced ns/op over plain ns/op (≥ 1 means tracing
	// costs time); TracedExtraAllocs is the per-query allocation count the
	// explain probe adds on top of the plain path.
	TracedNsRatio     float64 `json:"traced_ns_ratio"`
	TracedExtraAllocs float64 `json:"traced_extra_allocs_per_op"`
}

type telemetrySide struct {
	NsPerOp  float64 `json:"ns_per_op"`
	AllocsOp float64 `json:"allocs_per_op"`
	BytesOp  float64 `json:"bytes_per_op"`
}

// runTelemetry measures plain vs explained queries over the shared TS
// fixture (n = 64, M = 8%, k = 8 — the same workload BENCH_alloc.json
// snapshots) and writes BENCH_telemetry.json.
func runTelemetry(scale float64, numQueries int, seed int64, outPath string) error {
	d, ix, queries, err := benchFixture(scale, numQueries, seed)
	if err != nil {
		return err
	}
	opts := []gnn.QueryOption{
		gnn.WithK(benchK), gnn.WithAlgorithm(gnn.AlgoMBM),
	}

	// Warm both entry points so the measured passes see steady-state
	// scratch capacity on each.
	for _, q := range queries {
		if _, err := ix.GroupNN(q, opts...); err != nil {
			return err
		}
		if _, _, err := ix.GroupNNExplain(q, opts...); err != nil {
			return err
		}
	}

	measure := func(traced bool) (telemetrySide, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		const minRounds, maxRounds, minWall = 3, 40, 250 * time.Millisecond
		rounds := 0
		for rounds < minRounds || (time.Since(start) < minWall && rounds < maxRounds) {
			for _, q := range queries {
				var err error
				if traced {
					_, _, err = ix.GroupNNExplain(q, opts...)
				} else {
					_, err = ix.GroupNN(q, opts...)
				}
				if err != nil {
					return telemetrySide{}, err
				}
			}
			rounds++
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		total := float64(rounds * len(queries))
		return telemetrySide{
			NsPerOp:  float64(elapsed.Nanoseconds()) / total,
			AllocsOp: float64(after.Mallocs-before.Mallocs) / total,
			BytesOp:  float64(after.TotalAlloc-before.TotalAlloc) / total,
		}, nil
	}

	// Alternate the two sides so drift (thermal, GC pacing) hits both
	// equally; keep each side's fastest pass and cleanest allocation
	// count (the query's own allocations are deterministic — anything
	// above the minimum is a background goroutine or GC-internal
	// allocation that happened to land in the measured window).
	const passes = 5
	var plain, traced telemetrySide
	for i := 0; i < passes; i++ {
		p, err := measure(false)
		if err != nil {
			return err
		}
		tr, err := measure(true)
		if err != nil {
			return err
		}
		if i == 0 || p.NsPerOp < plain.NsPerOp {
			plain.NsPerOp = p.NsPerOp
		}
		if i == 0 || tr.NsPerOp < traced.NsPerOp {
			traced.NsPerOp = tr.NsPerOp
		}
		if i == 0 || p.AllocsOp < plain.AllocsOp {
			plain.AllocsOp, plain.BytesOp = p.AllocsOp, p.BytesOp
		}
		if i == 0 || tr.AllocsOp < traced.AllocsOp {
			traced.AllocsOp, traced.BytesOp = tr.AllocsOp, tr.BytesOp
		}
	}

	snap := telemetrySnapshot{
		benchEnv:          newBenchEnv(d.Name, ix.Len(), scale),
		benchWorkload:     newBenchWorkload(len(queries)),
		Kind:              "telemetry",
		Plain:             plain,
		Traced:            traced,
		TracedNsRatio:     traced.NsPerOp / plain.NsPerOp,
		TracedExtraAllocs: traced.AllocsOp - plain.AllocsOp,
	}
	fmt.Printf("# telemetry overhead — warm packed MBM, %s (%d points), %d queries of n=%d, k=%d\n\n",
		d.Name, ix.Len(), len(queries), benchGroupSize, benchK)
	fmt.Printf("%-8s  %12s  %12s  %12s\n", "side", "ns/op", "allocs/op", "B/op")
	fmt.Printf("%-8s  %12.0f  %12.1f  %12.1f\n", "plain", plain.NsPerOp, plain.AllocsOp, plain.BytesOp)
	fmt.Printf("%-8s  %12.0f  %12.1f  %12.1f\n", "traced", traced.NsPerOp, traced.AllocsOp, traced.BytesOp)
	fmt.Printf("\n# traced/plain ns ratio %.3f, extra allocs/op %.1f\n",
		snap.TracedNsRatio, snap.TracedExtraAllocs)
	return writeBenchJSON(outPath, snap)
}
