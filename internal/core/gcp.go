package core

import (
	"math"

	"gnn/internal/pagestore"
	"gnn/internal/rtree"
)

// GCPOptions extends Options for the group closest pairs method.
type GCPOptions struct {
	Options
	// PairBudget caps the number of closest pairs the algorithm may
	// consume before giving up with ErrBudgetExceeded, reproducing the
	// paper's observation that GCP "does not terminate at all" when the
	// query workspace is large (§5.2). Zero means unlimited.
	PairBudget int64
}

// GCPReport carries the result and the cost diagnostics of a GCP run.
type GCPReport struct {
	Neighbors []GroupNeighbor
	// PairsConsumed is the number of closest pairs the algorithm read.
	PairsConsumed int64
	// MaxQualifying is the high-water mark of the qualifying list.
	MaxQualifying int
	// HeapMax is the high-water mark of the closest-pair heap (the
	// paper's "large heap requirements").
	HeapMax int
	// Cost is this query's combined node accesses over both trees.
	Cost pagestore.CostTracker
}

// gcpCand is a qualifying-list record: the running state of a data point
// whose distances to Q are still being accumulated.
type gcpCand struct {
	nb       rtree.Neighbor
	count    int
	currDist float64
}

// GCP answers a GNN query with the group closest pairs method (§4.1). Both
// P and Q are indexed by R-trees. An incremental closest-pair stream
// (<p_i, q_j> in ascending distance, [HS98]) feeds a qualifying list that
// accumulates, per data point, the count of pairs seen and the partial sum
// of distances. A point whose count reaches n = |Q| has its exact global
// distance and competes for the result.
//
// Heuristic 4 discards a partial point p once
//
//	(n − count(p))·dist(p_i,q_j) + curr_dist(p) ≥ best_dist,
//
// i.e. even if all its remaining distances equalled the current pair
// distance it could not beat the incumbent. Per-point thresholds
// t = (best_dist − curr_dist)/(n − count) aggregate into the global
// threshold T (their maximum); the algorithm stops when a result exists
// and either the qualifying list is empty or the current pair distance
// reaches T.
//
// The SUM aggregate only: the accumulation is a running sum.
func GCP(tp, tq *rtree.Tree, opt GCPOptions) (*GCPReport, error) {
	opt.Options = opt.Options.withDefaults()
	if opt.K < 1 {
		return nil, ErrBadK
	}
	if opt.Aggregate != Sum {
		return nil, ErrUnsupportedAggregate
	}
	if opt.Weights != nil || opt.Region != nil {
		return nil, ErrUnsupportedOption
	}
	if tq.Len() == 0 {
		return nil, ErrEmptyQuery
	}
	if opt.Cost == nil {
		opt.Cost = &pagestore.CostTracker{}
	}
	// Both trees charge the same per-query tracker, so the report's cost is
	// the combined NA over P and Q.
	it, err := rtree.NewClosestPairIteratorReaders(tp.Reader(opt.Cost), tq.Reader(opt.Cost))
	if err != nil {
		return nil, err
	}
	defer it.Close()
	ec, owned := opt.exec()
	defer releaseIfOwned(ec, owned)
	n := tq.Len()
	best := ec.kbestFor(tp, opt.K, opt.Reject)
	list := make(map[int64]*gcpCand)
	report := &GCPReport{}
	T := 0.0

	for {
		pair, ok := it.Next()
		if it.HeapMax() > report.HeapMax {
			report.HeapMax = it.HeapMax()
		}
		if !ok {
			break // every pair consumed: all surviving points completed
		}
		report.PairsConsumed++
		if opt.PairBudget > 0 && report.PairsConsumed > opt.PairBudget {
			report.Cost = *opt.Cost
			return report, ErrBudgetExceeded
		}
		d := pair.Dist
		bestDist := best.bound()
		c, inList := list[pair.P.ID]

		switch {
		case !inList && math.IsInf(bestDist, 1):
			// No complete result yet: every first-seen point qualifies.
			list[pair.P.ID] = &gcpCand{nb: pair.P, count: 1, currDist: d}
			if len(list) > report.MaxQualifying {
				report.MaxQualifying = len(list)
			}

		case !inList:
			// A complete result exists. A brand-new point needs n pairs,
			// each ≥ d (pairs ascend), so its global distance is ≥ n·d;
			// and best_dist is a sum of n pair distances that were all
			// ≤ d, so best_dist ≤ n·d. The point cannot win: discard.

		default:
			c.count++
			c.currDist += d
			if c.count == n {
				delete(list, pair.P.ID)
				if c.currDist < bestDist {
					best.offer(GroupNeighbor{Point: c.nb.Point, ID: c.nb.ID, Dist: c.currDist})
					// Re-prune the whole list against the new bound
					// (heuristic 4) and rebuild the global threshold.
					bestDist = best.bound()
					T = 0
					for id, p := range list {
						if float64(n-p.count)*d+p.currDist >= bestDist {
							delete(list, id)
							continue
						}
						if t := (bestDist - p.currDist) / float64(n-p.count); t > T {
							T = t
						}
					}
				}
			} else if !math.IsInf(bestDist, 1) {
				if float64(n-c.count)*d+c.currDist >= bestDist {
					delete(list, pair.P.ID) // heuristic 4
				} else if t := (bestDist - c.currDist) / float64(n-c.count); t > T {
					T = t
				}
			}
		}

		if !math.IsInf(best.bound(), 1) && (d >= T || len(list) == 0) {
			break
		}
	}
	report.Neighbors = best.results()
	report.Cost = *opt.Cost
	return report, nil
}
