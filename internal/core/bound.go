package core

import (
	"math"
	"slices"
	"sync/atomic"
)

// SharedBound is a monotonically tightening upper bound on the k-th best
// aggregate distance of one logical query, shared by several concurrent
// traversals of disjoint data partitions (the sharded scatter-gather
// execution). Each partition's kernel prunes with the minimum of its own
// k-th best and this bound, and publishes its k-th best whenever it
// tightens, so a shard that has already found close neighbors cuts the
// search space of every other shard.
//
// Soundness: a partition's current k-th best distance always upper-bounds
// the final k-th best over the union of partitions (the union only adds
// candidates), and the bound only ever decreases, so pruning against it
// can discard only candidates that cannot rank strictly inside the final
// k. The merged answer therefore carries exactly the distances of an
// unpartitioned search, rank for rank; when several distinct points tie
// at exactly the k-th best distance, the representative kept may differ
// from the unpartitioned run's — the same latitude a single traversal's
// own first-come tie-breaking already has (kbest rejects an equal-distance
// candidate against a full list). Node-access counts of individual shards
// vary with publication timing; the answer's distances never do.
//
// The value is stored as the bit pattern of a float64 in an atomic
// uint64; all stored values are non-negative (distances or +Inf), so the
// CAS loop in Tighten needs no ABA care beyond value comparison. The zero
// value is NOT usable — construct with NewSharedBound, which starts at
// +Inf (no information).
type SharedBound struct {
	bits atomic.Uint64
}

// NewSharedBound returns a bound initialised to +Inf.
func NewSharedBound() *SharedBound {
	b := &SharedBound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

// Load returns the current bound.
func (b *SharedBound) Load() float64 {
	return math.Float64frombits(b.bits.Load())
}

// Tighten lowers the bound to d if d improves on it; larger values are
// ignored, so the bound decreases monotonically under any interleaving.
func (b *SharedBound) Tighten(d float64) {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= d {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(d)) {
			return
		}
	}
}

// MergeNeighbors merges per-partition result lists — each ascending by
// distance, as every kernel returns them — into the k best overall, with
// the same ID-deduplication and tie semantics as a single kbest fed the
// candidates in ascending (distance, partition-order) order. It is the
// gather half of the sharded scatter-gather execution.
//
// Candidates arrive in ascending order, so each one that survives
// deduplication ranks last among those taken: the merge appends, and
// stops at k. The output is sized by what the lists hold, min(k, total),
// and its points are the lists' own, which the kernels returned as
// caller-owned copies.
func MergeNeighbors(k int, lists [][]GroupNeighbor) []GroupNeighbor {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]GroupNeighbor, 0, min(k, total))
	idx := make([]int, len(lists))
	for len(out) < k {
		pick := -1
		var d float64
		for l, i := range idx {
			if i >= len(lists[l]) {
				continue
			}
			if pick == -1 || lists[l][i].Dist < d {
				pick, d = l, lists[l][i].Dist
			}
		}
		if pick == -1 {
			break
		}
		g := lists[pick][idx[pick]]
		idx[pick]++
		if !slices.ContainsFunc(out, func(o GroupNeighbor) bool { return o.ID == g.ID }) {
			out = append(out, g) // already a result otherwise (same point ⇒ same distance)
		}
	}
	return out
}
