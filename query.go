package gnn

import (
	"errors"
	"fmt"

	"gnn/internal/core"
	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
	"gnn/internal/shard"
)

// Algorithm selects the GNN processing method for memory-resident query
// groups.
type Algorithm int

const (
	// AlgoAuto picks MBM, the paper's overall winner (§5.1).
	AlgoAuto Algorithm = iota
	// AlgoMQM is the multiple query method (§3.1).
	AlgoMQM
	// AlgoSPM is the single point method (§3.2).
	AlgoSPM
	// AlgoMBM is the minimum bounding method (§3.3).
	AlgoMBM
	// AlgoBruteForce scans all points; exact but index-oblivious.
	AlgoBruteForce
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoMQM:
		return "MQM"
	case AlgoSPM:
		return "SPM"
	case AlgoMBM:
		return "MBM"
	case AlgoBruteForce:
		return "brute-force"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Aggregate selects the distance-combination function dist(p,Q).
type Aggregate = core.Aggregate

// Aggregates. SumDist is the paper's semantics; MaxDist/MinDist are the
// future-work extension, supported by MQM and MBM.
const (
	SumDist = core.Sum
	MaxDist = core.Max
	MinDist = core.Min
)

// ErrPendingMutations reports a disk-family query (F-MQM, F-MBM, GCP) on
// an index carrying un-compacted overlay writes. These algorithms drive a
// stateful traversal over one base structure and have no sound
// multi-source merge; fold the overlay first (Index.Compact) and retry.
// The memory-resident family serves mutated indexes directly.
var ErrPendingMutations = errors.New("gnn: index has pending mutations; call Compact first")

// QueryOption customises a GroupNN call.
type QueryOption func(*queryConfig)

type queryConfig struct {
	cancel      *core.CancelCheck
	k           int
	algo        Algorithm
	aggregate   Aggregate
	depthFirst  bool
	weights     []float64
	region      *geom.Rect
	parallelism int
	// shards is set only by the test-only WithShards (export_test.go),
	// which pins a partitioned base's scatter width; 0 leaves it to the
	// call (see wideScatter).
	shards int
	// genericMax is set only by the test-only WithGenericMax
	// (export_test.go), the reference path of the MAX differential suites.
	genericMax bool
	// probe, when non-nil, collects the diagnostics GroupNNExplain
	// reports: pruning counters, per-stage wall times and execution
	// provenance. It is set only by the explain entry points — plain
	// queries carry a nil probe and skip all collection.
	probe *explainProbe
}

// explainProbe is the per-query diagnostic sink behind GroupNNExplain.
type explainProbe struct {
	trace   core.Trace
	stages  core.StageLog
	overlay bool // overlay sources were merged into the answer
	shards  int  // the base's shard count, 0 when unpartitioned
}

// WithK requests the k best group neighbors (default 1; 0 means the
// default).
func WithK(k int) QueryOption { return func(c *queryConfig) { c.k = k } }

// WithAlgorithm forces a specific processing method.
func WithAlgorithm(a Algorithm) QueryOption { return func(c *queryConfig) { c.algo = a } }

// WithAggregate selects SUM (default), MAX or MIN distance aggregation.
func WithAggregate(a Aggregate) QueryOption { return func(c *queryConfig) { c.aggregate = a } }

// WithDepthFirst switches SPM/MBM to depth-first traversal (best-first is
// the default, as in the paper's experiments).
func WithDepthFirst() QueryOption { return func(c *queryConfig) { c.depthFirst = true } }

// WithWeights assigns a positive weight per query point, making the
// aggregate Σᵢ wᵢ·|p qᵢ| (or the weighted max/min). The slice must match
// the query group's length. Supported by MQM, SPM, MBM and brute force.
func WithWeights(w []float64) QueryOption { return func(c *queryConfig) { c.weights = w } }

// WithRegion restricts results to data points inside the axis-aligned
// rectangle [lo, hi] — constrained GNN search. Supported by MQM, SPM, MBM,
// the iterator and brute force, on every kind of index; MBM, SPM and the
// iterator additionally prune the subtrees that miss the region.
func WithRegion(lo, hi Point) QueryOption {
	return func(c *queryConfig) {
		r := geom.NewRect(geom.Point(lo), geom.Point(hi))
		c.region = &r
	}
}

// WithParallelism sets the worker count of GroupNNBatch (default
// GOMAXPROCS). It has no effect on single queries.
func WithParallelism(n int) QueryOption { return func(c *queryConfig) { c.parallelism = n } }

// buildConfig applies opts over the defaults. A k of 0 (WithK(0)) means
// the default, 1, resolved here so that every read path and explain's K
// see the k that is served.
func buildConfig(opts []QueryOption) queryConfig {
	var c queryConfig
	for _, o := range opts {
		o(&c)
	}
	if c.k == 0 {
		c.k = 1
	}
	return c
}

func (c queryConfig) coreOptions() core.Options {
	o := core.Options{K: c.k, Aggregate: c.aggregate, Weights: c.weights,
		Region: c.region, Cancel: c.cancel, GenericMax: c.genericMax}
	if c.depthFirst {
		o.Traversal = core.DepthFirst
	}
	if c.probe != nil {
		o.Trace = &c.probe.trace
		o.Stages = &c.probe.stages
	}
	return o
}

// GroupNN answers a GNN query for a memory-resident query group: the k
// indexed points with the smallest aggregate distance to query, in
// ascending order. Safe for unlimited concurrent callers.
func (ix *Index) GroupNN(query []Point, opts ...QueryOption) ([]Result, error) {
	res, _, err := ix.GroupNNWithCost(query, opts...)
	return res, err
}

// GroupNNWithCost is GroupNN returning this query's own I/O cost alongside
// the results — on a partitioned index the exact sum of all per-shard
// node accesses. The index-wide aggregate (Index.Cost) accrues the same
// counts, so per-query costs of any set of queries sum to the aggregate.
func (ix *Index) GroupNNWithCost(query []Point, opts ...QueryOption) ([]Result, Cost, error) {
	return ix.groupNN(query, buildConfig(opts), nil, wideScatter)
}

// The scatter widths of a partitioned base: a single query scatters
// across every core for latency, a batch worker scans its query's shards
// one after another on its own context (parallelism then comes from
// concurrent queries, and the shared pruning bound cascades from shard to
// shard). Results never depend on the width, only scheduling does.
const (
	wideScatter       = 0 // shard.Set.Search reads 0 as one worker per core
	sequentialScatter = 1
)

// groupNN answers one memory-resident query and returns its results with
// the query's own cost (partial when the query was canceled): the one
// query path behind every GroupNN variant. ec supplies the query's pooled
// scratch arena, which also holds the query's cost tracker; nil draws one
// from the pool for the duration of the call (the batch engine passes one
// per worker so a whole batch reuses the same warm scratch).
// defaultWorkers is wideScatter or sequentialScatter.
func (ix *Index) groupNN(query []Point, c queryConfig, ec *core.ExecContext, defaultWorkers int) ([]Result, Cost, error) {
	if ec == nil {
		ec = core.AcquireExec()
		defer ec.Release()
	}
	tk := ec.Tracker()
	res, err := ix.answer(query, c, tk, ec, defaultWorkers)
	return res, costOf(*tk), err
}

// answer runs one memory-resident query on ec's scratch, charging tk.
func (ix *Index) answer(query []Point, c queryConfig, tk *pagestore.CostTracker, ec *core.ExecContext, defaultWorkers int) ([]Result, error) {
	r, err := ix.acquire()
	if err != nil {
		return nil, err
	}
	defer ix.release(r)
	if err := c.cancel.Check(); err != nil {
		return nil, err // already expired/canceled on arrival
	}
	if err := ix.prepare(); err != nil {
		return nil, err
	}
	qs, err := groupPoints(ec.Points(len(query)), query)
	if err != nil {
		return nil, err
	}
	opt := c.coreOptions()
	opt.Cost = tk
	opt.Exec = ec
	s := ix.view.Load()
	kern, err := kernelFor(c.algo)
	if err != nil {
		return nil, err
	}
	workers := c.shards
	if workers == 0 {
		workers = defaultWorkers
	}
	if c.probe != nil {
		c.probe.overlay = overlaySize(s) > 0
		c.probe.shards = s.Shards()
	}
	gs, err := s.Search(qs, opt, workers, kern)
	if err != nil {
		return nil, err
	}
	return toResults(gs), nil
}

// groupPoints converts the caller's query group into dst (len(query)
// long) without copying coordinates, and rejects a NaN, infinite or
// out-of-range coordinate with *NonFiniteError: one would poison or
// overflow every aggregate distance and pruning bound the kernels
// compute. Every query entry point (plain, batch, explain, iterator,
// context) converts its group here.
func groupPoints(dst []geom.Point, query []Point) ([]geom.Point, error) {
	for i, q := range query {
		if err := rtree.CheckFinite(i, geom.Point(q)); err != nil {
			return nil, err
		}
		dst[i] = geom.Point(q)
	}
	return dst, nil
}

// kernelFor maps a public algorithm to its core entry point — the single
// dispatch table of every read path.
func kernelFor(a Algorithm) (shard.Kernel, error) {
	switch a {
	case AlgoMQM:
		return core.MQM, nil
	case AlgoSPM:
		return core.SPM, nil
	case AlgoBruteForce:
		return core.BruteForce, nil
	case AlgoAuto, AlgoMBM:
		return core.MBM, nil
	default:
		return nil, fmt.Errorf("gnn: unknown algorithm %v", a)
	}
}

// Iterator reports group nearest neighbors one at a time in ascending
// aggregate distance, so callers need not fix k in advance (incremental
// MBM). An Iterator is a single query's execution context: use it from one
// goroutine, but any number of iterators may run concurrently. Callers
// that stop before exhausting the scan should Close the iterator so its
// pooled scratch is recycled; forgetting to Close only costs the reuse.
type Iterator struct {
	// it is the single-tree incremental scan (core.GNNIterator) or a lazy
	// k-way merge of scans (shard's iterator), ascending either way.
	it shard.Stream
	tk pagestore.CostTracker
	// done releases the owning index's lifecycle reference (so Close can
	// drain live iterators); nil once released.
	done func()
}

// iterDone reports whether the iterator has been closed. The wrapper (not
// pooled, so this state cannot go stale) absorbs double-Close and
// Next-after-Close, which must never reach the pooled core iterator: once
// that object is re-leased to another query, its own closed flag belongs
// to the new owner.
func (it *Iterator) iterDone() bool { return it.it == nil }

// GroupNNIterator starts an incremental GNN scan. On a partitioned index
// the per-shard incremental MBM streams merge lazily into one globally
// ascending stream, advancing a shard only when its lower bound is the
// smallest; results and ordering match an unpartitioned index over the
// same points, and cost is the exact sum of per-shard accesses. The
// iterator holds a reference on the index until Close or exhaustion, so
// a concurrent Index.Close waits for it; close iterators you abandon
// early.
func (ix *Index) GroupNNIterator(query []Point, opts ...QueryOption) (*Iterator, error) {
	r, err := ix.acquire()
	if err != nil {
		return nil, err
	}
	if err := ix.prepare(); err != nil {
		ix.release(r)
		return nil, err
	}
	c := buildConfig(opts)
	qs, err := groupPoints(make([]geom.Point, len(query)), query)
	if err != nil {
		ix.release(r)
		return nil, err
	}
	out := &Iterator{}
	opt := c.coreOptions()
	opt.Cost = &out.tk
	out.it, err = ix.view.Load().NewIterator(qs, opt)
	if err != nil {
		ix.release(r)
		return nil, err
	}
	out.done = func() { ix.release(r) }
	return out, nil
}

// Next returns the next group nearest neighbor; ok is false when the data
// set is exhausted or the iterator has been closed. The result's Point
// is a fresh copy the caller owns.
func (it *Iterator) Next() (Result, bool) {
	if it.iterDone() {
		return Result{}, false
	}
	g, ok := it.it.Next()
	if !ok {
		// Exhausted: recycle the scratch and release the index reference
		// eagerly, so a drained-but-unclosed iterator never blocks Close.
		it.Close()
		return Result{}, false
	}
	// The stream's point is only valid until it advances (and may be an
	// overlay's own pending point): hand out a copy.
	return Result{Point: Point(g.Point.Clone()), ID: g.ID, Dist: g.Dist}, true
}

// Cost returns the I/O this iterator has charged so far.
func (it *Iterator) Cost() Cost { return costOf(it.tk) }

// Close releases the iterator's pooled scratch. The iterator must not be
// used afterwards (Next reports exhaustion); Close is idempotent.
func (it *Iterator) Close() {
	if it.iterDone() {
		return
	}
	it.it.Close()
	it.it = nil
	if it.done != nil {
		it.done()
		it.done = nil
	}
}

// Errors surfaced by queries (wrapping the core package's sentinels so
// callers can errors.Is them without importing internals).
var (
	// ErrEmptyQuery reports an empty query group.
	ErrEmptyQuery = core.ErrEmptyQuery
	// ErrBadK reports a non-positive k.
	ErrBadK = core.ErrBadK
	// ErrUnsupportedAggregate reports an aggregate the chosen algorithm
	// cannot process (SPM and the disk algorithms are SUM-only).
	ErrUnsupportedAggregate = core.ErrUnsupportedAggregate
	// ErrUnsupportedOption reports an extension option the chosen
	// algorithm cannot honor: the disk-resident family rejects weighted
	// groups and constrained regions outright rather than silently
	// ignoring them.
	ErrUnsupportedOption = core.ErrUnsupportedOption
	// ErrBudgetExceeded reports that GCP hit its pair budget.
	ErrBudgetExceeded = core.ErrBudgetExceeded
)

// Ensure the aliases stay wired to the same sentinel values.
var _ = func() bool {
	if !errors.Is(ErrEmptyQuery, core.ErrEmptyQuery) {
		panic("sentinel mismatch")
	}
	return true
}()
