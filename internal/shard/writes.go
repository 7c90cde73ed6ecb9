package shard

import (
	"errors"
	"maps"
	"slices"

	"gnn/internal/core"
	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
)

// pendFold is the pending-tail length at which the overlay folds its
// points into a freshly bulk-loaded (and packed) delta mini tree. Below
// it, inserted points are answered by an uncharged linear scan; the fold
// keeps that scan O(pendFold) no matter how far compaction lags.
const pendFold = 256

// deltaFirstPage offsets the delta tree's simulated page identifiers far
// above any base tree's so an attached LRU buffer never aliases base and
// delta pages.
const deltaFirstPage = pagestore.PageID(1) << 40

// writes is the immutable write overlay of one view: every write builds
// a successor (copy-on-write slices), never edits one in place.
type writes struct {
	pts    []geom.Point // overlay-inserted points, insertion order
	ids    []int64
	folded int           // pts[:folded] are indexed by delta; the rest is the pending tail
	delta  *rtree.Packed // packed mini tree over pts[:folded]; nil while folded == 0
	tombs  *tombSet      // masked base occurrences
	// reject is tombs.rejects, bound once per view so that reads pass
	// core.Options.Reject without allocating; nil without tombstones.
	reject core.RejectFunc
}

// pending returns the inserts not yet folded into the delta tree, with
// their ids.
func (w *writes) pending() ([]geom.Point, []int64) {
	return w.pts[w.folded:], w.ids[w.folded:]
}

// Overlay returns the size of the view's write overlay: the inserted
// points not yet folded into a base, and the base occurrences its
// tombstones mask.
func (s *Set) Overlay() (inserts, tombstones int) {
	if s.w == nil {
		return 0, 0
	}
	return len(s.w.pts), s.w.tombs.total()
}

// with returns the successor of s over the same arenas with the overlay
// w, or with no overlay when w has no effect.
func (s *Set) with(w writes) *Set {
	n := *s
	n.w = nil
	if len(w.pts) > 0 || w.tombs.total() > 0 {
		w.reject = nil
		if w.tombs.total() > 0 {
			w.reject = w.tombs.rejects
		}
		n.w = &w
	}
	return &n
}

// Insert returns the successor view for inserting (p, id); s is left as
// it was. An insert of a tombstoned base point resurrects the base
// occurrence instead of growing the overlay, keeping the live multiset
// exact. The successor keeps p, so p must be a copy nobody edits.
func (s *Set) Insert(p geom.Point, id int64) (*Set, error) {
	var w writes
	if s.w != nil {
		w = *s.w
	}
	if ts, ok := w.tombs.resurrect(p, id); ok {
		w.tombs = ts
		return s.with(w), nil
	}
	w.pts, w.ids = appendOne(w.pts, p), appendOne(w.ids, id)
	if len(w.pts)-w.folded >= pendFold {
		if err := w.fold(s.deltaConfig()); err != nil {
			return nil, err
		}
	}
	return s.with(w), nil
}

// Delete returns the successor view for deleting one occurrence of
// (p, id), and whether a matching live entry existed; s is left as it
// was. Overlay points are removed physically (latest copy first); base
// occurrences are tombstoned up to their exact multiplicity.
func (s *Set) Delete(p geom.Point, id int64) (*Set, bool) {
	var w writes
	if s.w != nil {
		w = *s.w
	}
	for i := len(w.pts) - 1; i >= 0; i-- {
		if w.ids[i] != id || !w.pts[i].Equal(p) {
			continue
		}
		w.pts, w.ids = without(w.pts, i), without(w.ids, i)
		// A point removed from the delta tree refolds the survivors. That
		// cannot fail: the same points bulk-loaded once already.
		if i < w.folded && w.fold(s.deltaConfig()) != nil {
			return nil, false
		}
		return s.with(w), true
	}
	ts, ok := w.tombs.delete(p, id, s.countExact(p, id))
	if !ok {
		return nil, false
	}
	w.tombs = ts
	return s.with(w), true
}

// countExact returns the multiplicity of (p, id) across all arenas. Like
// rtree's CountExact it charges nothing — it is the overlay's tombstone
// bookkeeping, not a query.
func (s *Set) countExact(p geom.Point, id int64) int {
	n := 0
	for _, a := range s.arenas {
		n += a.CountExact(p, id)
	}
	return n
}

// deltaConfig is the base geometry with the delta page range.
func (s *Set) deltaConfig() rtree.Config {
	cfg := s.Config()
	cfg.FirstPage = deltaFirstPage
	return cfg
}

// fold packs a delta tree over all overlay points. The tree adopts a copy
// of the ids: the packer reorders its columns in place.
func (w *writes) fold(cfg rtree.Config) error {
	cols, err := rtree.Columns(cfg, w.pts)
	if err != nil {
		return err
	}
	delta, err := rtree.PackSTR(cfg, cols, slices.Clone(w.ids))
	if err != nil {
		return err
	}
	w.delta, w.folded = delta, len(w.pts)
	return nil
}

// appendOne returns a copy of s with v appended, at exact capacity, so
// that a view's slices never carry room a successor could append into.
func appendOne[T any](s []T, v T) []T {
	n := make([]T, len(s), len(s)+1)
	copy(n, s)
	return append(n, v)
}

// without returns a copy of s without its i-th element.
func without[T any](s []T, i int) []T {
	n := make([]T, 0, len(s)-1)
	n = append(n, s[:i]...)
	return append(n, s[i+1:]...)
}

// errTombstones reports a view whose tombstones do not mask as many base
// points as they count; Fold cannot lay out its live multiset.
var errTombstones = errors.New("shard: tombstones do not match the base points they mask")

// Fold returns the view's live points packed into a fresh set without
// writes, of this set's kind and geometry: one arena (Pack), or as many
// shards as this set has (Build). The live points are the arenas' points
// in shard and slot order, minus the tombstoned ones, then the overlay
// inserts in insertion order. A set without writes is returned as it is.
// A borrowed set must pass Prepare first.
func (s *Set) Fold() (*Set, error) {
	if s.w == nil {
		return s, nil
	}
	cols, ids, err := s.liveColumns()
	if err != nil {
		return nil, err
	}
	if s.partitioned {
		return Build(s.Config(), cols, ids, len(s.arenas))
	}
	return Pack(s.Config(), cols, ids)
}

// liveColumns returns the view's live points as the axis-major columns
// and ids that Pack and Build adopt as the new base's leaf columns.
// Coordinates are copied column to column, never staged point by point,
// and nothing aliases a mapped arena that a later Close will unmap.
func (s *Set) liveColumns() ([]float64, []int64, error) {
	tombs, pts := s.w.tombs, s.w.pts
	// Each tombstone masks one base point, so live base points fill the
	// first live slots of every axis; a base point beyond them means the
	// tombstones do not match the base.
	live := -tombs.total()
	for _, p := range s.arenas {
		live += p.Len()
	}
	if live < 0 {
		return nil, nil, errTombstones
	}
	n := live + len(pts)
	cols := make([]float64, s.dim*n)
	ids := make([]int64, 0, n)
	drop := tombs.consumer()
	pt := make(geom.Point, s.dim)
	for _, p := range s.arenas {
		pc, pids := p.PointSoA(), p.IDs()
		if tombs.total() == 0 {
			for a, col := range pc {
				copy(cols[a*n+len(ids):], col)
			}
			ids = append(ids, pids...)
			continue
		}
		for slot, id := range pids {
			if drop(p.PointInto(int32(slot), pt), id) {
				continue
			}
			if len(ids) == live {
				return nil, nil, errTombstones
			}
			for a, col := range pc {
				cols[a*n+len(ids)] = col[slot]
			}
			ids = append(ids, id)
		}
	}
	for i, q := range pts {
		for a, v := range q {
			cols[a*n+live+i] = v
		}
	}
	return cols, append(ids, s.w.ids...), nil
}

// tomb masks count of the baseN exact (p, id) occurrences in the base.
// count < baseN means some copies are still live: base hits for the
// point survive. count == baseN masks the point entirely.
type tomb struct {
	p     geom.Point
	count int
	baseN int
}

// tombSet is an immutable set of tombstones keyed by point id (the base
// may hold several distinct points per id, hence the per-id list):
// delete and resurrect return a successor and leave the receiver as it
// was, so a published view reads it lock-free. The zero value and the
// nil pointer are both the empty set.
type tombSet struct {
	m    map[int64][]tomb
	size int // Σ count: the masked base occurrences
}

// total returns the number of masked base occurrences (counting
// multiplicity).
func (ts *tombSet) total() int {
	if ts == nil {
		return 0
	}
	return ts.size
}

// rejects reports whether a base hit (p, id) is fully masked: a tombstone
// for the exact point exists and every base occurrence is deleted. While
// count < baseN at least one copy is live, and because result sets
// deduplicate by id, keeping the hit yields exactly what a fresh index
// holding the remaining copies would return.
func (ts *tombSet) rejects(p geom.Point, id int64) bool {
	if ts == nil {
		return false
	}
	for _, t := range ts.m[id] {
		if t.count >= t.baseN && t.p.Equal(p) {
			return true
		}
	}
	return false
}

// lookup returns the tombstone for (p, id), if any.
func (ts *tombSet) lookup(p geom.Point, id int64) (tomb, bool) {
	if ts == nil {
		return tomb{}, false
	}
	for _, t := range ts.m[id] {
		if t.p.Equal(p) {
			return t, true
		}
	}
	return tomb{}, false
}

// clone copies the id → tombs map shallowly: the per-id lists stay
// shared with ts, so a successor edits a list only through edit.
func (ts *tombSet) clone() *tombSet {
	if ts == nil {
		return &tombSet{m: make(map[int64][]tomb)}
	}
	return &tombSet{m: maps.Clone(ts.m), size: ts.size}
}

// edit gives the clone n a private copy of id's list, with room for
// one more tomb, and returns it.
func (n *tombSet) edit(id int64) []tomb {
	l := append(make([]tomb, 0, len(n.m[id])+1), n.m[id]...)
	n.m[id] = l
	return l
}

// delete records one more deletion of (p, id) whose base multiplicity is
// baseN (consulted only when no tombstone exists yet). It returns the new
// set and whether the deletion took effect; masking beyond baseN — or a
// baseN of zero — is refused with the receiver unchanged.
func (ts *tombSet) delete(p geom.Point, id int64, baseN int) (*tombSet, bool) {
	if t, ok := ts.lookup(p, id); ok {
		if t.count >= t.baseN {
			return ts, false // already fully masked
		}
		n := ts.clone()
		l := n.edit(id)
		for i := range l {
			if l[i].p.Equal(p) {
				l[i].count++
				break
			}
		}
		n.size++
		return n, true
	}
	if baseN <= 0 {
		return ts, false
	}
	n := ts.clone()
	n.m[id] = append(n.edit(id), tomb{p: p.Clone(), count: 1, baseN: baseN})
	n.size++
	return n, true
}

// resurrect undoes one deletion of (p, id): an insert of a tombstoned
// base point decrements its tombstone instead of growing the delta, which
// keeps the live multiset exact. It returns the new set and whether a
// masked occurrence existed to revive.
func (ts *tombSet) resurrect(p geom.Point, id int64) (*tombSet, bool) {
	t, ok := ts.lookup(p, id)
	if !ok || t.count == 0 {
		return ts, false
	}
	n := ts.clone()
	l := n.edit(id)
	for i := range l {
		if l[i].p.Equal(p) {
			l[i].count--
			if l[i].count == 0 {
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
	n.size--
	return n, true
}

// consumer returns a stateful drop-filter for one enumeration of the
// base: the n-th call with a masked (p, id) returns true (drop) while n ≤
// count, so exactly the deleted multiplicity is skipped and surviving
// duplicates pass through. The fold materialises the live multiset with
// it.
func (ts *tombSet) consumer() func(p geom.Point, id int64) bool {
	if ts.total() == 0 {
		return func(geom.Point, int64) bool { return false }
	}
	// A private deep copy: the filter decrements counts in place.
	left := make(map[int64][]tomb, len(ts.m))
	for id, l := range ts.m {
		left[id] = slices.Clone(l)
	}
	return func(p geom.Point, id int64) bool {
		l := left[id]
		for i := range l {
			if l[i].count > 0 && l[i].p.Equal(p) {
				l[i].count--
				return true
			}
		}
		return false
	}
}
