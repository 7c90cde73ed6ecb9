// The delta-overlay write path of Index: an immutable base plus a
// small write overlay (pending tail, folded delta tree, delete
// tombstones), every version published atomically so queries never see a
// half-applied write. See the package comment's "Writes under live
// traffic" paragraph for the contract and compact.go for the compactor
// that folds the overlay back into the base.

package gnn

import (
	"errors"
	"slices"

	"gnn/internal/geom"
	"gnn/internal/overlay"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
	"gnn/internal/shard"
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

// viewState is one immutable serving version of an Index: queries load it
// once and traverse only its fields, so a concurrent writer publishing a
// successor never perturbs an in-flight traversal.
type viewState struct {
	// set is the base every query traverses: one unpartitioned arena or a
	// Hilbert shard set. It is nil only before a NewIndex's first read,
	// while mutations edit Index.slab. Once set, the base is immutable:
	// mutations go through the overlay.
	set *shard.Set
	// ov is the write overlay; nil when the index has no un-compacted
	// writes (the fast path: queries run exactly the single-source code
	// that served before overlays existed).
	ov *overlayState
	// read is ov as the base's reads take it (built once per view); nil
	// exactly when ov is.
	read *shard.Overlay
	// seq is the mutation-log length when this view was published.
	seq uint64
}

// overlaySize is the overlay's footprint for compaction triggering:
// live overlay inserts plus masked base occurrences.
func (v *viewState) overlaySize() int {
	if v.ov == nil {
		return 0
	}
	return len(v.ov.pts) + v.ov.tombs.Total()
}

// overlayState is the immutable write overlay of one view: every mutation
// builds a new value (copy-on-write slices), never edits one in place.
type overlayState struct {
	pts    []geom.Point // overlay-inserted points, insertion order
	ids    []int64
	folded int              // pts[:folded] are indexed by delta; the rest is the pending tail
	delta  *rtree.Packed    // packed mini tree over pts[:folded]; nil while folded == 0
	tombs  *overlay.TombSet // masked base occurrences
}

// empty reports whether the overlay holds no effect.
func (ov *overlayState) empty() bool {
	return ov == nil || (len(ov.pts) == 0 && ov.tombs.Total() == 0)
}

// succ returns a successor view carrying the (possibly nil-normalised)
// overlay.
func (v *viewState) succ(ov *overlayState) *viewState {
	if ov.empty() {
		return &viewState{set: v.set, seq: v.seq + 1}
	}
	read := &shard.Overlay{Delta: ov.delta, Pending: ov.pts[ov.folded:], IDs: ov.ids[ov.folded:]}
	if ov.tombs.Total() > 0 {
		read.Reject = ov.tombs.Rejects
	}
	return &viewState{set: v.set, ov: ov, read: read, seq: v.seq + 1}
}

// deltaConfig is the base geometry with the delta page range.
func deltaConfig(rcfg rtree.Config) rtree.Config {
	rcfg.FirstPage = deltaFirstPage
	return rcfg
}

// applier folds one mutation into an overlay state over one base: its
// delta-tree geometry and its way of counting exact base occurrences.
type applier struct {
	dcfg      rtree.Config
	baseCount func(p geom.Point, id int64) int
}

// foldDelta packs a delta tree over all overlay points. The tree adopts
// a copy of ids: the packer reorders its columns in place.
func (a applier) foldDelta(pts []geom.Point, ids []int64) (*rtree.Packed, error) {
	cols, err := rtree.Columns(a.dcfg, pts)
	if err != nil {
		return nil, err
	}
	return rtree.PackSTR(a.dcfg, cols, slices.Clone(ids))
}

// insert returns the successor overlay for inserting (p, id) over a
// frozen base. An insert of a tombstoned base point resurrects the base
// occurrence instead of growing the overlay, keeping the live multiset
// exact. p must already be a caller-owned copy.
func (a applier) insert(ov *overlayState, p geom.Point, id int64) (*overlayState, error) {
	if ov != nil {
		if ts, ok := ov.tombs.Resurrect(p, id); ok {
			nov := *ov
			nov.tombs = ts
			return &nov, nil
		}
	}
	var nov overlayState
	if ov != nil {
		nov = *ov
	}
	npts := make([]geom.Point, len(nov.pts), len(nov.pts)+1)
	copy(npts, nov.pts)
	nids := make([]int64, len(nov.ids), len(nov.ids)+1)
	copy(nids, nov.ids)
	nov.pts = append(npts, p)
	nov.ids = append(nids, id)
	if len(nov.pts)-nov.folded >= pendFold {
		delta, err := a.foldDelta(nov.pts, nov.ids)
		if err != nil {
			return nil, err
		}
		nov.delta, nov.folded = delta, len(nov.pts)
	}
	return &nov, nil
}

// delete returns the successor overlay for deleting one occurrence of
// (p, id) over a frozen base, and whether a matching live entry existed.
// Overlay points are removed physically (latest copy first); base
// occurrences are tombstoned up to their exact multiplicity.
func (a applier) delete(ov *overlayState, p geom.Point, id int64) (*overlayState, bool) {
	if ov != nil {
		for i := len(ov.pts) - 1; i >= 0; i-- {
			if ov.ids[i] != id || !ov.pts[i].Equal(p) {
				continue
			}
			nov := *ov
			nov.pts = removePoint(ov.pts, i)
			nov.ids = removeID(ov.ids, i)
			if i < ov.folded {
				// The removed point was in the delta tree: refold over
				// the surviving points. Failure cannot happen (the
				// surviving points already bulk-loaded once).
				delta, err := a.foldDelta(nov.pts, nov.ids)
				if err != nil {
					return nil, false
				}
				nov.delta, nov.folded = delta, len(nov.pts)
			} else {
				nov.folded = ov.folded
			}
			return &nov, true
		}
	}
	var tombs *overlay.TombSet
	if ov != nil {
		tombs = ov.tombs
	}
	nts, ok := tombs.Delete(p, id, a.baseCount(p, id))
	if !ok {
		return nil, false
	}
	var nov overlayState
	if ov != nil {
		nov = *ov
	}
	nov.tombs = nts
	return &nov, true
}

// applier binds the write logic to one view; base multiplicities are
// counted uncharged (tombstone bookkeeping, not a query).
func (ix *Index) applier(v *viewState) applier {
	return applier{dcfg: deltaConfig(ix.rcfg), baseCount: v.set.CountExact}
}

// applyInsert returns the successor view for inserting (p, id).
func (ix *Index) applyInsert(v *viewState, p geom.Point, id int64) (*viewState, error) {
	nov, err := ix.applier(v).insert(v.ov, p, id)
	if err != nil {
		return nil, err
	}
	return v.succ(nov), nil
}

// applyDelete returns the successor view for deleting one occurrence of
// (p, id), and whether a matching live entry existed.
func (ix *Index) applyDelete(v *viewState, p geom.Point, id int64) (*viewState, bool) {
	nov, ok := ix.applier(v).delete(v.ov, p, id)
	if !ok {
		return nil, false
	}
	return v.succ(nov), true
}

func removePoint(s []geom.Point, i int) []geom.Point {
	n := make([]geom.Point, 0, len(s)-1)
	n = append(n, s[:i]...)
	return append(n, s[i+1:]...)
}

func removeID(s []int64, i int) []int64 {
	n := make([]int64, 0, len(s)-1)
	n = append(n, s[:i]...)
	return append(n, s[i+1:]...)
}

// errTombstones reports a view whose tombstones do not mask as many base
// points as they count; liveColumns cannot lay out its live multiset.
var errTombstones = errors.New("gnn: tombstones do not match the base points they mask")

// liveColumns returns a view's live multiset — the points of the base
// arenas, in order and in slot order, not masked by a tombstone, then
// overlay points in insertion order — as the axis-major columns and ids
// that rtree.PackSTR adopts as the new base's leaf columns. Coordinates
// are copied column to column, never staged point by point, and nothing
// aliases a mapped arena that a later Close will unmap.
func liveColumns(bases []*rtree.Packed, ov *overlayState) ([]float64, []int64, error) {
	dim := bases[0].Dim()
	var tombs *overlay.TombSet
	var pts []geom.Point
	var ovIDs []int64
	if ov != nil {
		tombs, pts, ovIDs = ov.tombs, ov.pts, ov.ids
	}
	// Each tombstone masks one base point, so live base points fill the
	// first live slots of every axis; a base point beyond them means the
	// tombstones do not match the base.
	live := -tombs.Total()
	for _, p := range bases {
		live += p.Len()
	}
	if live < 0 {
		return nil, nil, errTombstones
	}
	n := live + len(pts)
	cols := make([]float64, dim*n)
	ids := make([]int64, 0, n)
	drop := tombs.Consumer()
	pt := make(geom.Point, dim)
	for _, p := range bases {
		pc, pids := p.PointSoA(), p.IDs()
		if tombs.Total() == 0 {
			for a, col := range pc {
				copy(cols[a*n+len(ids):], col)
			}
			ids = append(ids, pids...)
			continue
		}
		for s, id := range pids {
			if drop(p.PointInto(int32(s), pt), id) {
				continue
			}
			if len(ids) == live {
				return nil, nil, errTombstones
			}
			for a, col := range pc {
				cols[a*n+len(ids)] = col[s]
			}
			ids = append(ids, id)
		}
	}
	for i, q := range pts {
		for a, v := range q {
			cols[a*n+live+i] = v
		}
	}
	return cols, append(ids, ovIDs...), nil
}
