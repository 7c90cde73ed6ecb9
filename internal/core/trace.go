package core

import "time"

// Trace collects per-query diagnostics about the work a traversal did and
// which heuristic saved what. Attach one via Options.Trace; every
// memory-resident kernel populates the counters that apply to it — MBM
// (best-first, depth-first and the iterator) fills the heuristic-2/3 and
// MEB counters, SPM the heuristic-1 counters, MQM the stream counters,
// and BruteForce the scan counters. Tracing is optional and costs
// nothing when absent; with a trace attached the kernels only increment
// integers, so results are bit-identical either way.
//
// The counters quantify the paper's qualitative claims: heuristic 2 is
// "not very tight" but nearly free; heuristic 3 "requires multiple
// distance computations" but prunes what heuristic 2 misses (§3.3).
type Trace struct {
	// NodesVisited counts expanded (read) nodes.
	NodesVisited int
	// NodesPrunedH1 counts nodes discarded by SPM's centroid bound
	// (heuristic 1 / Lemma 1).
	NodesPrunedH1 int
	// PointsPrunedH1 counts data points discarded by the same bound
	// before their exact group distance was computed.
	PointsPrunedH1 int
	// NodesPrunedH2 counts nodes discarded by the cheap MBR bound
	// (heuristic 2 / heuristic 5's quick check).
	NodesPrunedH2 int
	// NodesPrunedH3 counts nodes that survived heuristic 2 but were
	// discarded by the tight per-query-point bound (heuristic 3).
	NodesPrunedH3 int
	// PointsPrunedQuick counts data points discarded by the cheap point
	// bound before paying for exact distance computations.
	PointsPrunedQuick int
	// NodesPrunedMEB counts nodes discarded by the dedicated aggregate-MAX
	// kernel's minimum-enclosing-ball bound (depth-first MBM only; the
	// best-first iterator folds the same bound into its heap keys, where
	// pruning has no discrete event to count).
	NodesPrunedMEB int
	// PointsPrunedMEB counts data points discarded by the MEB point bound
	// before paying for exact distance computations (depth-first MBM).
	PointsPrunedMEB int
	// StreamAdvances counts neighbors retrieved from MQM's per-query-point
	// incremental NN streams — the paper's measure of how far the
	// threshold algorithm had to advance each stream before T ≥ best_dist.
	StreamAdvances int
	// PointsScanned counts data points consumed by a BruteForce scan
	// (every indexed point unless the scan was canceled early).
	PointsScanned int
	// ExactDistances counts full dist(p,Q) evaluations (n Euclidean
	// distances each).
	ExactDistances int
}

// add is nil-safe incrementing.
func (tr *Trace) add(f func(*Trace)) {
	if tr != nil {
		f(tr)
	}
}

// Merge accumulates o into tr. Both receivers and arguments may be nil
// (no-op). The sharded scatter gives each shard worker a private trace
// and merges them at gather time, so per-shard counters always sum to
// the query total.
func (tr *Trace) Merge(o *Trace) {
	if tr == nil || o == nil {
		return
	}
	tr.NodesVisited += o.NodesVisited
	tr.NodesPrunedH1 += o.NodesPrunedH1
	tr.PointsPrunedH1 += o.PointsPrunedH1
	tr.NodesPrunedH2 += o.NodesPrunedH2
	tr.NodesPrunedH3 += o.NodesPrunedH3
	tr.PointsPrunedQuick += o.PointsPrunedQuick
	tr.NodesPrunedMEB += o.NodesPrunedMEB
	tr.PointsPrunedMEB += o.PointsPrunedMEB
	tr.StreamAdvances += o.StreamAdvances
	tr.PointsScanned += o.PointsScanned
	tr.ExactDistances += o.ExactDistances
}

// Stage is one timed step of a query's execution, recorded into a
// StageLog: "scatter" (one per shard, Shard set), "merge", the overlay
// sources ("base", "delta", "pending"), and the serving layer's
// "admission" wait.
type Stage struct {
	// Name identifies the step.
	Name string
	// Shard is the shard index for per-shard stages, -1 otherwise.
	Shard int
	// Duration is the stage's wall time.
	Duration time.Duration
}

// StageLog accumulates per-stage wall times for one query. Like Trace it
// is nil-safe: a nil log records nothing and costs one branch. It is not
// safe for concurrent appends — parallel writers (the sharded scatter)
// record into private slots and append at gather time, on one goroutine.
type StageLog struct {
	Stages []Stage
}

// Record appends one stage. Pass shard -1 for stages that are not
// per-shard.
func (s *StageLog) Record(name string, shard int, d time.Duration) {
	if s != nil {
		s.Stages = append(s.Stages, Stage{Name: name, Shard: shard, Duration: d})
	}
}
