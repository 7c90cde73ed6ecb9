package core

import (
	"math"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
)

// DiskReport carries the result and cost diagnostics of a disk-resident
// run.
type DiskReport struct {
	Neighbors []GroupNeighbor
	// Rounds is the number of group phases executed (F-MQM) or leaf nodes
	// processed (F-MBM).
	Rounds int
	// Cost is this query's combined I/O: R-tree node accesses plus Q page
	// reads. The same counts also accrue on the tree's and query file's
	// shared accountants.
	Cost pagestore.CostTracker
}

// fmqmCand is a pending F-MQM candidate: a group-local nearest neighbor
// whose global distance is still being accumulated, one group per phase.
type fmqmCand struct {
	nb        GroupNeighbor // nb.Dist = distance to its own group at creation
	acc       float64
	next      int // next group index to apply
	remaining int
}

// FMQM answers a disk-resident GNN query with F-MQM (§4.2): the
// Hilbert-sorted query file is split into memory blocks Q_1..Q_m; each
// block gets an incremental GNN stream over P (main-memory MBM, the
// paper's choice); the streams are combined MQM-style in round-robin
// phases. Because only one block is in memory at a time, a freshly drawn
// group NN p_j cannot be evaluated globally at once: its distance to each
// other group is added lazily when that group's phase comes around, so
// every candidate completes exactly one full cycle after its creation.
//
// Per-group thresholds t_j = dist(p_j, Q_j) (the last local NN distance)
// sum to the global threshold T; drawing stops when T ≥ best_dist. Pending
// candidates are then flushed (up to m−1 extra phases) before returning —
// they were drawn before the threshold was reached and may still win.
//
// SUM aggregate only (the threshold decomposition over blocks is a sum).
func FMQM(t *rtree.Tree, qf *QueryFile, opt Options) (*DiskReport, error) {
	opt, err := opt.diskOptions()
	if err != nil {
		return nil, err
	}
	ec, owned := opt.exec()
	defer releaseIfOwned(ec, owned)
	m := qf.NumBlocks()
	iters := make([]*GNNIterator, m)
	defer func() {
		for _, it := range iters {
			it.Close() // nil-safe; releases each block's stream to the pool
		}
	}()
	exhausted := make([]bool, m)
	ec.thresholds = grow(ec.thresholds, m)
	clear(ec.thresholds)
	thresholds := ec.thresholds
	var pending []*fmqmCand
	best := ec.kbestFor(t, opt.K, opt.Reject)
	report := &DiskReport{}

	sumT := func() float64 {
		s := 0.0
		for _, v := range thresholds {
			s += v
		}
		return s
	}

	for j := 0; ; j = (j + 1) % m {
		drawing := sumT() < best.bound()
		if !drawing && len(pending) == 0 {
			break
		}
		// Skip the phase (and its I/O) when group j has nothing to do.
		needUpdate := false
		for _, c := range pending {
			if c.next == j && c.remaining > 0 {
				needUpdate = true
				break
			}
		}
		if !needUpdate && (!drawing || exhausted[j]) {
			continue
		}
		pts, err := qf.ReadBlock(j, opt.Cost) // one block read per phase
		if err != nil {
			return nil, err
		}
		report.Rounds++

		// 1) Complete pending candidates with their distance to Q_j.
		keep := pending[:0]
		for _, c := range pending {
			if c.next == j && c.remaining > 0 {
				c.acc += geom.SumDist(c.nb.Point, pts)
				c.remaining--
				c.next = (j + 1) % m
				if c.remaining == 0 {
					best.offer(GroupNeighbor{Point: c.nb.Point, ID: c.nb.ID, Dist: c.acc})
					continue
				}
			}
			keep = append(keep, c)
		}
		pending = keep

		// 2) Draw the next local NN of group j.
		if drawing && !exhausted[j] {
			if iters[j] == nil {
				// opt carries the per-query tracker, so the per-block GNN
				// streams charge it too.
				it, err := NewGNNIterator(t, pts, opt)
				if err != nil {
					return nil, err
				}
				iters[j] = it
			}
			g, ok := iters[j].Next()
			if !ok {
				// Group j has ranked the entire dataset: every point has
				// been seen through this group. Mark the stream done; its
				// threshold becomes infinite (nothing unseen remains).
				exhausted[j] = true
				thresholds[j] = math.Inf(1)
			} else {
				thresholds[j] = g.Dist
				if m == 1 {
					best.offer(g) // the group is all of Q
				} else {
					// g.Point borrows stream j's scratch, which stays intact
					// until stream j is drawn again — and the candidate
					// completes in the m-1 phases before that.
					pending = append(pending, &fmqmCand{
						nb:        g,
						acc:       g.Dist,
						next:      (j + 1) % m,
						remaining: m - 1,
					})
				}
			}
		}
	}
	report.Neighbors = best.results()
	report.Cost = *opt.Cost
	return report, nil
}
