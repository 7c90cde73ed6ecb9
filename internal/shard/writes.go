package shard

import (
	"errors"
	"slices"

	"gnn/internal/core"
	"gnn/internal/geom"
	"gnn/internal/overlay"
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
	folded int              // pts[:folded] are indexed by delta; the rest is the pending tail
	delta  *rtree.Packed    // packed mini tree over pts[:folded]; nil while folded == 0
	tombs  *overlay.TombSet // masked base occurrences
	// reject is tombs.Rejects, bound once per view so that reads pass
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
	return len(s.w.pts), s.w.tombs.Total()
}

// with returns the successor of s over the same arenas with the overlay
// w, or with no overlay when w has no effect.
func (s *Set) with(w writes) *Set {
	n := *s
	n.w = nil
	if len(w.pts) > 0 || w.tombs.Total() > 0 {
		w.reject = nil
		if w.tombs.Total() > 0 {
			w.reject = w.tombs.Rejects
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
	if ts, ok := w.tombs.Resurrect(p, id); ok {
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
	ts, ok := w.tombs.Delete(p, id, s.countExact(p, id))
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
	live := -tombs.Total()
	for _, p := range s.arenas {
		live += p.Len()
	}
	if live < 0 {
		return nil, nil, errTombstones
	}
	n := live + len(pts)
	cols := make([]float64, s.dim*n)
	ids := make([]int64, 0, n)
	drop := tombs.Consumer()
	pt := make(geom.Point, s.dim)
	for _, p := range s.arenas {
		pc, pids := p.PointSoA(), p.IDs()
		if tombs.Total() == 0 {
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
