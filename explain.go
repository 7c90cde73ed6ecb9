package gnn

import (
	"context"
	"time"

	"gnn/internal/core"
)

// TraceCounters is the public mirror of the engine's per-query pruning
// diagnostics (core.Trace): how many nodes a traversal expanded, what
// each heuristic pruned, and how many exact group-distance evaluations
// were paid. Which counters are populated depends on the algorithm —
// MBM fills the heuristic-2/3 (and, for MAX, MEB) counters, SPM the
// heuristic-1 counters, MQM the stream counters, brute force the scan
// counters. On a sharded index every counter is the exact sum over the
// shards.
type TraceCounters struct {
	NodesVisited      int `json:"nodes_visited"`
	NodesPrunedH1     int `json:"nodes_pruned_h1,omitempty"`
	PointsPrunedH1    int `json:"points_pruned_h1,omitempty"`
	NodesPrunedH2     int `json:"nodes_pruned_h2,omitempty"`
	NodesPrunedH3     int `json:"nodes_pruned_h3,omitempty"`
	PointsPrunedQuick int `json:"points_pruned_quick,omitempty"`
	NodesPrunedMEB    int `json:"nodes_pruned_meb,omitempty"`
	PointsPrunedMEB   int `json:"points_pruned_meb,omitempty"`
	StreamAdvances    int `json:"stream_advances,omitempty"`
	PointsScanned     int `json:"points_scanned,omitempty"`
	ExactDistances    int `json:"exact_distances"`
}

func traceCounters(tr *core.Trace) TraceCounters {
	return TraceCounters{
		NodesVisited:      tr.NodesVisited,
		NodesPrunedH1:     tr.NodesPrunedH1,
		PointsPrunedH1:    tr.PointsPrunedH1,
		NodesPrunedH2:     tr.NodesPrunedH2,
		NodesPrunedH3:     tr.NodesPrunedH3,
		PointsPrunedQuick: tr.PointsPrunedQuick,
		NodesPrunedMEB:    tr.NodesPrunedMEB,
		PointsPrunedMEB:   tr.PointsPrunedMEB,
		StreamAdvances:    tr.StreamAdvances,
		PointsScanned:     tr.PointsScanned,
		ExactDistances:    tr.ExactDistances,
	}
}

// StageTiming is one timed step of a query's execution. Stage names:
// "query" (the whole traversal of an unpartitioned index without overlay
// writes), "scatter" (one entry per shard of a partitioned index, Shard
// set) and "merge" (their gather); on an index with overlay writes, after
// a partitioned base's "scatter" entries, "base" (the whole base
// search), "delta", "pending" and the one final merge of every source —
// "overlay-merge" on a partitioned index, "merge" on an unpartitioned
// one; and, on queries arriving through the HTTP server, "admission"
// (time spent waiting for an admission slot).
type StageTiming struct {
	Name string `json:"name"`
	// Shard is the shard index for per-shard stages, -1 otherwise.
	Shard int `json:"shard"`
	// DurationUS is the stage's wall time in microseconds.
	DurationUS int64 `json:"duration_us"`
}

// QueryExplain is the structured execution report of one GNN query:
// which algorithm/aggregate actually served it, where the time
// went stage by stage, what the pruning heuristics saved, and what I/O
// it cost. Collecting it changes no results — tracing only increments
// counters and reads clocks — so an explained query returns exactly the
// neighbors the plain call returns.
type QueryExplain struct {
	// Algorithm is the resolved processing method ("MBM" even when the
	// request said auto).
	Algorithm string `json:"algorithm"`
	// Aggregate is the distance combination served ("sum", "max", "min").
	Aggregate string `json:"aggregate"`
	// MaxKernel records the MAX aggregate's kernel provenance under MBM:
	// "meb" for the dedicated minimum-enclosing-ball kernel, "generic" for
	// the per-member bounds — the reference path the differential tests
	// select, and the path of a one-point group. Empty for SUM/MIN queries
	// and the other algorithms.
	MaxKernel string `json:"max_kernel,omitempty"`
	// K and GroupSize echo the query shape.
	K         int `json:"k"`
	GroupSize int `json:"group_size"`
	// Shards is the shard count of a partitioned index, 0 for an
	// unpartitioned one.
	Shards int `json:"shards,omitempty"`
	// Overlay reports whether un-compacted writes (delta/tombstones) were
	// merged into the answer.
	Overlay bool `json:"overlay"`
	// Stages are the per-stage wall times in execution order.
	Stages []StageTiming `json:"stages"`
	// Trace are the pruning counters.
	Trace TraceCounters `json:"trace"`
	// Cost is the query's I/O cost (the paper's NA metric and friends).
	Cost Cost `json:"cost"`
	// TotalUS is the query's total wall time in microseconds, measured
	// around the whole call (admission to merged results).
	TotalUS int64 `json:"total_us"`
}

// explainFrom assembles the public report from a completed probe.
func explainFrom(c queryConfig, groupSize int, cost Cost, total time.Duration) *QueryExplain {
	p := c.probe
	algo := c.algo
	if algo == AlgoAuto {
		algo = AlgoMBM
	}
	ex := &QueryExplain{
		Algorithm: algo.String(),
		Aggregate: c.aggregate.String(),
		K:         c.k,
		GroupSize: groupSize,
		Shards:    p.shards,
		Overlay:   p.overlay,
		Stages:    make([]StageTiming, 0, len(p.stages.Stages)),
		Trace:     traceCounters(&p.trace),
		Cost:      cost,
		TotalUS:   total.Microseconds(),
	}
	if c.aggregate == MaxDist && algo == AlgoMBM {
		ex.MaxKernel = "generic"
		if c.coreOptions().MEBEnabled(groupSize) {
			ex.MaxKernel = "meb"
		}
	}
	for _, s := range p.stages.Stages {
		ex.Stages = append(ex.Stages, StageTiming{Name: s.Name, Shard: s.Shard, DurationUS: s.Duration.Microseconds()})
	}
	return ex
}

// GroupNNExplain answers the query exactly like GroupNN and additionally
// returns a QueryExplain describing how: per-stage wall times, pruning
// counters and execution provenance. On a partitioned index the report
// carries one "scatter" stage per shard (with its shard index and wall
// time) and trace counters summed over the shards. The diagnostics are
// collected with plain counter increments, so results are bit-identical
// to the untraced call. Safe for unlimited concurrent callers.
func (ix *Index) GroupNNExplain(query []Point, opts ...QueryOption) ([]Result, *QueryExplain, error) {
	return ix.GroupNNExplainContext(context.Background(), query, opts...)
}

// GroupNNExplainContext is GroupNNExplain under a context (see
// GroupNNContext for the cancellation contract).
func (ix *Index) GroupNNExplainContext(ctx context.Context, query []Point, opts ...QueryOption) ([]Result, *QueryExplain, error) {
	c := buildConfig(opts)
	c.cancel = core.NewCancelCheck(ctx)
	c.probe = &explainProbe{}
	start := time.Now()
	res, cost, err := ix.groupNN(query, c, nil, wideScatter)
	if err != nil {
		return nil, nil, err
	}
	return res, explainFrom(c, len(query), cost, time.Since(start)), nil
}
