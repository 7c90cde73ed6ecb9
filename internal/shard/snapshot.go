package shard

import (
	"fmt"

	"gnn/internal/geom"
	"gnn/internal/hilbert"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
	"gnn/internal/snapshot"
)

// Snapshot returns the serialisable form of the shard set: a sharded
// manifest (one Hilbert cut per shard plus the partition bounding box,
// recomputed from the shard bounds exactly as Build derived it) and one
// arena per shard, in shard order. The per-tree arenas borrow the packed
// snapshots' slices; treat them as read-only.
func (s *Set) Snapshot() (snapshot.Manifest, []*snapshot.Tree) {
	trees := make([]*snapshot.Tree, len(s.units))
	cuts := make([]int64, len(s.units))
	var bbox geom.Rect
	have := false
	for i, u := range s.units {
		trees[i] = u.Packed.Snapshot()
		cuts[i] = int64(u.Tree.Len())
		if r, ok := u.Tree.Bounds(); ok {
			if have {
				bbox = bbox.Union(r)
			} else {
				bbox, have = r, true
			}
		}
	}
	h := &snapshot.Hilbert{Order: hilbert.DefaultOrder, CutSizes: cuts}
	if have {
		h.Lo[0], h.Hi[0] = bbox.Lo[0], bbox.Hi[0]
		// Mirror the partitioner's axis handling: 1-D data degenerates the
		// second axis to the first axis' minimum.
		h.Lo[1], h.Hi[1] = bbox.Lo[0], bbox.Lo[0]
		if s.dim >= 2 {
			h.Lo[1], h.Hi[1] = bbox.Lo[1], bbox.Hi[1]
		}
	}
	return snapshot.Manifest{
		Kind:    snapshot.KindSharded,
		Dim:     s.dim,
		Points:  s.size,
		Hilbert: h,
	}, trees
}

// SetFromSnapshot reconstructs a shard set from a decoded sharded
// snapshot: every shard's packed arena is adopted directly, with the
// Hilbert partition intact (each shard
// keeps exactly the points, page range and node structure it was written
// with). All shards share cfg.Accountant (one allocated here when nil),
// so cost accounting stays exactly additive across the partition, as
// after Build.
func SetFromSnapshot(m snapshot.Manifest, trees []*snapshot.Tree, cfg rtree.Config) (*Set, error) {
	if m.Kind != snapshot.KindSharded {
		return nil, fmt.Errorf("shard: snapshot kind %v, want %v", m.Kind, snapshot.KindSharded)
	}
	if len(trees) < 1 {
		return nil, fmt.Errorf("shard: sharded snapshot with no trees")
	}
	if cfg.Accountant == nil {
		cfg.Accountant = pagestore.NewAccountant(0)
	}
	s := &Set{units: make([]Unit, len(trees)), dim: m.Dim, size: m.Points}
	for i, st := range trees {
		p, err := rtree.PackedFromSnapshot(st, m.Dim, cfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.units[i] = Unit{Tree: p.Tree(), Packed: p}
	}
	return s, nil
}

// SetFromSnapshotBorrowed is the zero-copy sibling of SetFromSnapshot:
// every shard's arena borrows the decoded snapshot's slices (for a
// mapped open, the file mapping itself) via
// rtree.PackedFromSnapshotBorrowed. verify is the whole-snapshot
// deferred validation (snapshot.Adopted.Verify — internally once-only,
// so sharing it across all shards costs one verification); it must
// succeed, through Set.Prepare, before the first query. The caller owns
// the backing buffer's lifetime.
func SetFromSnapshotBorrowed(m snapshot.Manifest, trees []*snapshot.Tree, cfg rtree.Config, verify func() error) (*Set, error) {
	if m.Kind != snapshot.KindSharded {
		return nil, fmt.Errorf("shard: snapshot kind %v, want %v", m.Kind, snapshot.KindSharded)
	}
	if len(trees) < 1 {
		return nil, fmt.Errorf("shard: sharded snapshot with no trees")
	}
	if cfg.Accountant == nil {
		cfg.Accountant = pagestore.NewAccountant(0)
	}
	s := &Set{units: make([]Unit, len(trees)), dim: m.Dim, size: m.Points}
	for i, st := range trees {
		p, err := rtree.PackedFromSnapshotBorrowed(st, m.Dim, cfg, verify)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.units[i] = Unit{Tree: p.Tree(), Packed: p}
	}
	return s, nil
}
