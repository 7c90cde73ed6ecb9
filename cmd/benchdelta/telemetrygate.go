package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The -telemetry gate reads a BENCH_telemetry.json produced by gnnbench
// -telemetry and enforces the observability contract:
//
//  1. the plain GroupNN hot path still runs at exactly its committed
//     allocation count (4 allocs/op on the warm packed MBM kernel) with
//     every metric, trace hook and explain probe compiled in;
//  2. against a committed BENCH_alloc.json baseline measured on the same
//     workload (-telemetry-baseline), the plain ns/op regressed by at
//     most -telemetry-max-ratio (default 1.02 — the "metrics cost ≤2%"
//     claim; absolute times only compare on the machine that measured
//     the baseline, so the check is skipped when workloads differ);
//  3. the opt-in explain trace (GroupNNExplain) stays below a loose
//     ceiling over the plain path (-telemetry-traced-ratio) — tracing
//     does real extra work (stage clocks, heap drain classification),
//     but it must remain the same order of magnitude as the query.
//
// Allocation counts are deterministic, so check 1 runs with zero
// tolerance. Check 3's ratio comes from alternating passes within one
// gnnbench run, so it is machine-independent.

// telemetryPlainAllocs is the committed hot-path contract: the warm
// packed MBM kernel allocates exactly this many times per query (see
// BENCH_alloc.json).
const telemetryPlainAllocs = 4

type telemetrySideFile struct {
	NsPerOp  float64 `json:"ns_per_op"`
	AllocsOp float64 `json:"allocs_per_op"`
}

type telemetryFile struct {
	Kind      string            `json:"kind"`
	NumPoints int               `json:"num_points"`
	Queries   int               `json:"queries"`
	GroupSize int               `json:"group_size"`
	K         int               `json:"k"`
	Plain     telemetrySideFile `json:"plain"`
	Traced    telemetrySideFile `json:"traced"`
}

// allocBaselineFile mirrors the BENCH_alloc.json fields the gate reads.
type allocBaselineFile struct {
	NumPoints int `json:"num_points"`
	Queries   int `json:"queries"`
	GroupSize int `json:"group_size"`
	K         int `json:"k"`
	Cells     []struct {
		Algorithm string  `json:"algorithm"`
		Aggregate string  `json:"aggregate"`
		NsPerOp   float64 `json:"ns_per_op"`
	} `json:"cells"`
}

// runTelemetryGate returns the process exit code. basePath may be "" to
// skip the committed-baseline comparison; maxRatio bounds plain ns/op
// against the baseline, tracedRatio bounds traced/plain ns/op.
func runTelemetryGate(path, basePath string, maxRatio, tracedRatio float64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdelta:", err)
		return 1
	}
	var f telemetryFile
	if err := json.Unmarshal(data, &f); err != nil {
		fmt.Fprintf(os.Stderr, "benchdelta: %s: %v\n", path, err)
		return 1
	}
	if f.Kind != "telemetry" {
		fmt.Fprintf(os.Stderr, "benchdelta: %s: kind %q, want \"telemetry\"\n", path, f.Kind)
		return 1
	}
	if f.Plain.NsPerOp <= 0 || f.Traced.NsPerOp <= 0 {
		fmt.Fprintf(os.Stderr, "benchdelta: %s: empty measurement\n", path)
		return 1
	}

	failed := false
	fmt.Printf("%-26s  %12s  %12s  %s\n", "check", "measured", "limit", "verdict")
	check := func(name string, measured, limit float64, ok bool) {
		verdict := "ok"
		if !ok {
			verdict = fmt.Sprintf("FAIL (limit %.2f)", limit)
			failed = true
		}
		fmt.Printf("%-26s  %12.3f  %12.2f  %s\n", name, measured, limit, verdict)
	}

	check("plain allocs/op", f.Plain.AllocsOp, telemetryPlainAllocs,
		f.Plain.AllocsOp == telemetryPlainAllocs)

	if basePath != "" {
		baseNs, skip := baselinePlainNs(basePath, &f)
		if skip != "" {
			fmt.Printf("%-26s  %s\n", "plain ns vs baseline", skip)
		} else {
			ratio := f.Plain.NsPerOp / baseNs
			check("plain ns vs baseline", ratio, maxRatio, ratio <= maxRatio)
		}
	}

	ratio := f.Traced.NsPerOp / f.Plain.NsPerOp
	check("traced/plain ns ratio", ratio, tracedRatio, ratio <= tracedRatio)
	fmt.Printf("%-26s  %12.1f\n", "traced extra allocs/op", f.Traced.AllocsOp-f.Plain.AllocsOp)

	if failed {
		fmt.Fprintln(os.Stderr, "benchdelta: telemetry overhead regression detected")
		return 1
	}
	fmt.Printf("benchdelta: hot path holds %d allocs/op with telemetry compiled in\n", telemetryPlainAllocs)
	return 0
}

// baselinePlainNs extracts the MBM-BF/sum ns/op from a committed
// BENCH_alloc.json, or a non-empty skip reason when the comparison would
// not be apples-to-apples (different workload — absolute times only
// compare on the same fixture).
func baselinePlainNs(path string, f *telemetryFile) (float64, string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Sprintf("skipped (%v)", err)
	}
	var base allocBaselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		return 0, fmt.Sprintf("skipped (%s: %v)", path, err)
	}
	if base.NumPoints != f.NumPoints || base.Queries != f.Queries ||
		base.GroupSize != f.GroupSize || base.K != f.K {
		return 0, fmt.Sprintf("skipped (baseline workload %dpts/%dq differs from %dpts/%dq)",
			base.NumPoints, base.Queries, f.NumPoints, f.Queries)
	}
	for _, c := range base.Cells {
		if c.Algorithm == "MBM-BF" && c.Aggregate == "sum" {
			return c.NsPerOp, ""
		}
	}
	return 0, "skipped (no MBM-BF/sum cell in baseline)"
}
