package gnn

import (
	"fmt"

	"gnn/internal/core"
	"gnn/internal/geom"
	"gnn/internal/pagestore"
)

// DiskAlgorithm selects the processing method for disk-resident query
// sets.
type DiskAlgorithm int

const (
	// DiskAuto follows the paper's guidance (§5.2 summary): F-MQM when
	// the query set partitions into few blocks, F-MBM otherwise.
	DiskAuto DiskAlgorithm = iota
	// DiskFMQM is the file-multiple query method (§4.2).
	DiskFMQM
	// DiskFMBM is the file-minimum bounding method (§4.3).
	DiskFMBM
)

// DefaultAutoBlockThreshold is the default block count at which DiskAuto
// switches from F-MQM to F-MBM. The paper's PP query set yields 3 blocks
// (F-MQM wins) and its TS query set 20 blocks (F-MBM wins); the crossover
// sits between. Tune it per workload with
// QuerySetConfig.AutoBlockThreshold.
const DefaultAutoBlockThreshold = 8

// autoDiskAlgorithm resolves DiskAuto for a query set of the given block
// count under the given crossover threshold.
func autoDiskAlgorithm(blocks, threshold int) DiskAlgorithm {
	if blocks <= threshold {
		return DiskFMQM
	}
	return DiskFMBM
}

// String names the disk algorithm.
func (a DiskAlgorithm) String() string {
	switch a {
	case DiskAuto:
		return "auto"
	case DiskFMQM:
		return "F-MQM"
	case DiskFMBM:
		return "F-MBM"
	default:
		return fmt.Sprintf("DiskAlgorithm(%d)", int(a))
	}
}

// QuerySetConfig tunes a QuerySet.
type QuerySetConfig struct {
	// BlockPoints is the number of query points per memory block
	// (default 10,000, as in §5.2).
	BlockPoints int
	// BufferPages attaches an LRU buffer over the set's pages.
	BufferPages int
	// AutoBlockThreshold is the block count at which DiskAuto switches
	// from F-MQM (few blocks: per-block streams stay cheap) to F-MBM
	// (many blocks: one pruned traversal wins). Default
	// DefaultAutoBlockThreshold; negative forces F-MBM for every set.
	AutoBlockThreshold int
}

// QuerySet is a disk-resident, non-indexed query set: Hilbert-sorted,
// paged, and read block-by-block with I/O accounting — the input of F-MQM
// and F-MBM. Build one with NewQuerySet. A QuerySet is immutable after
// construction, so concurrent queries may share it.
type QuerySet struct {
	qf            *core.QueryFile
	acct          *pagestore.Accountant
	autoThreshold int
}

// NewQuerySet prepares a disk-resident query set from 2-D points.
func NewQuerySet(points []Point, cfg QuerySetConfig) (*QuerySet, error) {
	acct := pagestore.NewAccountant(cfg.BufferPages)
	pts := make([]geom.Point, len(points))
	for i, p := range points {
		pts[i] = geom.Point(p)
	}
	qf, err := core.NewQueryFile(pts, cfg.BlockPoints, acct, 0)
	if err != nil {
		return nil, err
	}
	threshold := cfg.AutoBlockThreshold
	if threshold == 0 {
		threshold = DefaultAutoBlockThreshold
	}
	return &QuerySet{qf: qf, acct: acct, autoThreshold: threshold}, nil
}

// AutoAlgorithm returns the algorithm DiskAuto resolves to for this set:
// F-MQM up to the configured block threshold, F-MBM beyond it.
func (qs *QuerySet) AutoAlgorithm() DiskAlgorithm {
	return autoDiskAlgorithm(qs.Blocks(), qs.autoThreshold)
}

// Len returns the number of query points.
func (qs *QuerySet) Len() int { return qs.qf.Len() }

// Blocks returns the number of memory-sized blocks.
func (qs *QuerySet) Blocks() int { return qs.qf.NumBlocks() }

// Pages returns the number of disk pages the set occupies.
func (qs *QuerySet) Pages() int { return qs.qf.Pages() }

// Cost reports the page reads charged to the query set since ResetCost.
func (qs *QuerySet) Cost() Cost { return costOf(qs.acct.Totals()) }

// ResetCost zeroes the counters, keeping buffer contents warm.
func (qs *QuerySet) ResetCost() { qs.acct.Reset() }

// GroupNNFromSet answers a GNN query whose query set resides on disk,
// using F-MQM or F-MBM. Accepted options: WithK, WithDepthFirst (F-MBM
// only) and WithDiskAlgorithm via the DiskQueryOption wrappers below.
// Safe for unlimited concurrent callers sharing the index and the set.
func (ix *Index) GroupNNFromSet(qs *QuerySet, algo DiskAlgorithm, opts ...QueryOption) ([]Result, error) {
	res, _, err := ix.GroupNNFromSetWithCost(qs, algo, opts...)
	return res, err
}

// GroupNNFromSetWithCost is GroupNNFromSet returning this query's own
// combined I/O cost (R-tree node accesses plus Q page reads).
func (ix *Index) GroupNNFromSetWithCost(qs *QuerySet, algo DiskAlgorithm, opts ...QueryOption) ([]Result, Cost, error) {
	c := buildConfig(opts)
	if c.aggregate != SumDist {
		return nil, Cost{}, ErrUnsupportedAggregate
	}
	if err := ix.acquire(); err != nil {
		return nil, Cost{}, err
	}
	defer ix.release()
	if err := ix.prepare(); err != nil {
		return nil, Cost{}, err
	}
	v := ix.view.Load()
	if v.ov != nil {
		return nil, Cost{}, ErrPendingMutations
	}
	dopt := core.DiskOptions{Options: c.coreOptions()}
	var tk pagestore.CostTracker
	dopt.Cost = &tk
	dopt.Packed = v.packed
	if algo == DiskAuto {
		algo = qs.AutoAlgorithm()
	}
	var rep *core.DiskReport
	var err error
	switch algo {
	case DiskFMQM:
		rep, err = core.FMQM(v.tree, qs.qf, dopt)
	case DiskFMBM:
		rep, err = core.FMBM(v.tree, qs.qf, dopt)
	default:
		return nil, Cost{}, fmt.Errorf("gnn: unknown disk algorithm %v", algo)
	}
	if err != nil {
		return nil, Cost{}, err
	}
	return toResults(rep.Neighbors), costOf(rep.Cost), nil
}

// GroupNNClosestPairs answers a GNN query whose query set is itself
// indexed by an R*-tree, using the group closest pairs method (§4.1).
// pairBudget caps the number of closest pairs consumed (0 = unlimited);
// exceeding it returns ErrBudgetExceeded, mirroring the paper's
// non-terminating GCP configurations.
func (ix *Index) GroupNNClosestPairs(queryIndex *Index, pairBudget int64, opts ...QueryOption) ([]Result, error) {
	res, _, err := ix.GroupNNClosestPairsWithCost(queryIndex, pairBudget, opts...)
	return res, err
}

// GroupNNClosestPairsWithCost is GroupNNClosestPairs returning this
// query's own combined node accesses over both indexes.
func (ix *Index) GroupNNClosestPairsWithCost(queryIndex *Index, pairBudget int64, opts ...QueryOption) ([]Result, Cost, error) {
	c := buildConfig(opts)
	if c.aggregate != SumDist {
		return nil, Cost{}, ErrUnsupportedAggregate
	}
	// The pair traversal reads both arenas, so both indexes stay
	// referenced (and a mapped one mapped) until it finishes.
	for _, x := range []*Index{ix, queryIndex} {
		if err := x.acquire(); err != nil {
			return nil, Cost{}, err
		}
		defer x.release()
		if err := x.prepare(); err != nil {
			return nil, Cost{}, err
		}
	}
	v, qv := ix.view.Load(), queryIndex.view.Load()
	if v.ov != nil || qv.ov != nil {
		return nil, Cost{}, ErrPendingMutations
	}
	gopt := core.GCPOptions{
		Options:    c.coreOptions(),
		PairBudget: pairBudget,
	}
	var tk pagestore.CostTracker
	gopt.Cost = &tk
	rep, err := core.GCP(v.packed, qv.packed, gopt)
	if err != nil {
		return nil, Cost{}, err
	}
	return toResults(rep.Neighbors), costOf(rep.Cost), nil
}
