// Package overlay holds the write-path bookkeeping of the delta-overlay
// index: delete tombstones that mask points of an immutable base tree,
// and the mutation log the background compactor replays when it swaps a
// freshly packed base in under live readers.
//
// Every value here is immutable after construction — mutating operations
// return a new TombSet (copy-on-write) — so a published index view can be
// read lock-free by any number of concurrent queries while writers
// prepare the next view.
package overlay

import (
	"maps"
	"slices"

	"gnn/internal/geom"
)

// Mutation is one logged write. Only effective writes are logged: an
// insert that landed in the overlay (or resurrected a tombstoned point)
// and a delete that removed a live point. No-ops (deleting an absent
// point, a rejected insert) never enter the log, so replaying a log
// prefix against the base it started from reproduces the exact live
// multiset.
type Mutation struct {
	Del bool
	P   geom.Point
	ID  int64
}

// Tomb masks Count of the BaseN exact (P, id) occurrences in the base
// tree. Count < BaseN means some copies are still live: base hits for the
// point survive. Count == BaseN masks the point entirely.
type Tomb struct {
	P     geom.Point
	Count int
	BaseN int
}

// TombSet is an immutable set of tombstones keyed by point id (the base
// may hold several distinct points per id, hence the per-id list). The
// zero value and the nil pointer are both the empty set.
type TombSet struct {
	m     map[int64][]Tomb
	total int // Σ Count — number of masked base occurrences
}

// Total returns the number of masked base occurrences (counting
// multiplicity).
func (ts *TombSet) Total() int {
	if ts == nil {
		return 0
	}
	return ts.total
}

// Rejects reports whether a base hit (p, id) is fully masked: a tombstone
// for the exact point exists and every base occurrence is deleted. While
// Count < BaseN at least one copy is live, and because result sets
// deduplicate by id, keeping the hit yields exactly what a fresh index
// holding the remaining copies would return.
func (ts *TombSet) Rejects(p geom.Point, id int64) bool {
	if ts == nil {
		return false
	}
	for _, t := range ts.m[id] {
		if t.Count >= t.BaseN && t.P.Equal(p) {
			return true
		}
	}
	return false
}

// lookup returns the tombstone for (p, id), if any.
func (ts *TombSet) lookup(p geom.Point, id int64) (Tomb, bool) {
	if ts == nil {
		return Tomb{}, false
	}
	for _, t := range ts.m[id] {
		if t.P.Equal(p) {
			return t, true
		}
	}
	return Tomb{}, false
}

// clone copies the id → tombs map shallowly: the per-id lists stay
// shared with ts, so a successor edits a list only through edit.
func (ts *TombSet) clone() *TombSet {
	if ts == nil {
		return &TombSet{m: make(map[int64][]Tomb)}
	}
	return &TombSet{m: maps.Clone(ts.m), total: ts.total}
}

// edit gives the clone n a private copy of id's list, with room for
// one more tomb, and returns it.
func (n *TombSet) edit(id int64) []Tomb {
	l := append(make([]Tomb, 0, len(n.m[id])+1), n.m[id]...)
	n.m[id] = l
	return l
}

// Delete records one more deletion of (p, id) whose base multiplicity is
// baseN (consulted only when no tombstone exists yet). It returns the new
// set and whether the deletion took effect; masking beyond baseN — or a
// baseN of zero — is refused with the receiver unchanged.
func (ts *TombSet) Delete(p geom.Point, id int64, baseN int) (*TombSet, bool) {
	if t, ok := ts.lookup(p, id); ok {
		if t.Count >= t.BaseN {
			return ts, false // already fully masked
		}
		n := ts.clone()
		l := n.edit(id)
		for i := range l {
			if l[i].P.Equal(p) {
				l[i].Count++
				break
			}
		}
		n.total++
		return n, true
	}
	if baseN <= 0 {
		return ts, false
	}
	n := ts.clone()
	n.m[id] = append(n.edit(id), Tomb{P: p.Clone(), Count: 1, BaseN: baseN})
	n.total++
	return n, true
}

// Resurrect undoes one deletion of (p, id): an insert of a tombstoned
// base point decrements its tombstone instead of growing the delta, which
// keeps the live multiset exact. It returns the new set and whether a
// masked occurrence existed to revive.
func (ts *TombSet) Resurrect(p geom.Point, id int64) (*TombSet, bool) {
	t, ok := ts.lookup(p, id)
	if !ok || t.Count == 0 {
		return ts, false
	}
	n := ts.clone()
	l := n.edit(id)
	for i := range l {
		if l[i].P.Equal(p) {
			l[i].Count--
			if l[i].Count == 0 {
				l[i] = l[len(l)-1]
				l = l[:len(l)-1]
				if len(l) == 0 {
					delete(n.m, id)
				} else {
					n.m[id] = l
				}
			}
			break
		}
	}
	n.total--
	return n, true
}

// Consumer returns a stateful drop-filter for one enumeration of the
// base: the n-th call with a masked (p, id) returns true (drop) while n ≤
// Count, so exactly the deleted multiplicity is skipped and surviving
// duplicates pass through. Used by the compactor to materialise the live
// multiset.
func (ts *TombSet) Consumer() func(p geom.Point, id int64) bool {
	if ts == nil || ts.total == 0 {
		return func(geom.Point, int64) bool { return false }
	}
	// A private deep copy: the filter decrements counts in place.
	left := make(map[int64][]Tomb, len(ts.m))
	for id, l := range ts.m {
		left[id] = slices.Clone(l)
	}
	return func(p geom.Point, id int64) bool {
		l := left[id]
		for i := range l {
			if l[i].Count > 0 && l[i].P.Equal(p) {
				l[i].Count--
				return true
			}
		}
		return false
	}
}
