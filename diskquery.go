package gnn

import (
	"fmt"

	"gnn/internal/core"
	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
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

// autoBlockThreshold is the block count up to which DiskAuto runs F-MQM
// (few blocks: per-block streams stay cheap) and beyond which it runs
// F-MBM (many blocks: one pruned traversal wins). The paper's PP query
// set yields 3 blocks (F-MQM wins) and its TS query set 20 blocks (F-MBM
// wins); the crossover sits between.
const autoBlockThreshold = 8

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
}

// QuerySet is a disk-resident, non-indexed query set: Hilbert-sorted,
// paged, and read block-by-block with I/O accounting — the input of F-MQM
// and F-MBM. Build one with NewQuerySet. A QuerySet is immutable after
// construction, so concurrent queries may share it.
type QuerySet struct {
	qf   *core.QueryFile
	acct *pagestore.Accountant
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
	return &QuerySet{qf: qf, acct: acct}, nil
}

// AutoAlgorithm returns the algorithm DiskAuto resolves to for this set:
// F-MQM up to 8 blocks, F-MBM beyond. Pass DiskFMQM or DiskFMBM to
// GroupNNFromSet to choose one regardless of the block count.
func (qs *QuerySet) AutoAlgorithm() DiskAlgorithm {
	if qs.Blocks() <= autoBlockThreshold {
		return DiskFMQM
	}
	return DiskFMBM
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
// It fails with ErrPartitioned on a sharded index.
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
	r, err := ix.acquire()
	if err != nil {
		return nil, Cost{}, err
	}
	defer ix.release(r)
	if err := ix.prepare(); err != nil {
		return nil, Cost{}, err
	}
	s := ix.view.Load()
	p, err := s.Arena()
	if err != nil {
		return nil, Cost{}, err
	}
	if overlaySize(s) > 0 {
		return nil, Cost{}, ErrPendingMutations
	}
	dopt := c.coreOptions()
	var tk pagestore.CostTracker
	dopt.Cost = &tk
	dopt.Packed = p
	if algo == DiskAuto {
		algo = qs.AutoAlgorithm()
	}
	var rep *core.DiskReport
	switch algo {
	case DiskFMQM:
		rep, err = core.FMQM(p.Tree(), qs.qf, dopt)
	case DiskFMBM:
		rep, err = core.FMBM(p.Tree(), qs.qf, dopt)
	default:
		return nil, Cost{}, fmt.Errorf("gnn: unknown disk algorithm %v", algo)
	}
	if err != nil {
		return nil, Cost{}, err
	}
	return toResults(rep.Neighbors), costOf(rep.Cost), nil
}

// GroupNNClosestPairs answers a GNN query whose query set is itself
// indexed by an R-tree, using the group closest pairs method (§4.1).
// pairBudget caps the number of closest pairs consumed (0 = unlimited);
// exceeding it returns ErrBudgetExceeded, mirroring the paper's
// non-terminating GCP configurations. It fails with ErrPartitioned when
// either index is sharded.
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
	var arenas [2]*rtree.Packed
	for i, x := range []*Index{ix, queryIndex} {
		r, err := x.acquire()
		if err != nil {
			return nil, Cost{}, err
		}
		defer x.release(r)
		if err := x.prepare(); err != nil {
			return nil, Cost{}, err
		}
		s := x.view.Load()
		if arenas[i], err = s.Arena(); err != nil {
			return nil, Cost{}, err
		}
		if overlaySize(s) > 0 {
			return nil, Cost{}, ErrPendingMutations
		}
	}
	gopt := core.GCPOptions{
		Options:    c.coreOptions(),
		PairBudget: pairBudget,
	}
	var tk pagestore.CostTracker
	gopt.Cost = &tk
	rep, err := core.GCP(arenas[0], arenas[1], gopt)
	if err != nil {
		return nil, Cost{}, err
	}
	return toResults(rep.Neighbors), costOf(rep.Cost), nil
}
