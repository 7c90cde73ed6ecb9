package shard

import (
	"fmt"
	"io"

	"gnn/internal/hilbert"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
	"gnn/internal/snapshot"
)

// WriteSnapshot writes the view to w as a snapshot of its live points:
// a plain one of the one arena for an unpartitioned set, or a sharded one
// — one arena section group per shard plus the sharded manifest — for a
// partitioned set. A view with writes is folded first (Fold); the set
// itself is unchanged. A borrowed set is verified first (Prepare), so a
// corrupt mapping is never laundered into a snapshot that passes its
// checksums.
func (s *Set) WriteSnapshot(w io.Writer) error {
	if err := s.Prepare(); err != nil {
		return err
	}
	f, err := s.Fold()
	if err != nil {
		return err
	}
	m, trees := f.Snapshot()
	return snapshot.Write(w, m, trees)
}

// Snapshot returns the serialisable form of the set's arenas, which a
// set with writes must fold first: the plain manifest and the one arena
// of an unpartitioned set, or a sharded manifest (one Hilbert cut per
// shard plus the partition bounding box, recomputed from the shard
// bounds exactly as Build derived it) and one arena per shard, in shard
// order. The per-tree arenas borrow the packed snapshots' slices; treat
// them as read-only.
func (s *Set) Snapshot() (snapshot.Manifest, []*snapshot.Tree) {
	trees := make([]*snapshot.Tree, len(s.arenas))
	for i, p := range s.arenas {
		trees[i] = p.Snapshot()
	}
	m := snapshot.Manifest{Kind: snapshot.KindPlain, Dim: s.dim, Points: s.size}
	if !s.partitioned {
		return m, trees
	}
	cuts := make([]int64, len(s.arenas))
	for i, p := range s.arenas {
		cuts[i] = int64(p.Len())
	}
	h := &snapshot.Hilbert{Order: hilbert.DefaultOrder, CutSizes: cuts}
	if bbox, ok := s.Bounds(); ok {
		h.Lo[0], h.Hi[0] = bbox.Lo[0], bbox.Hi[0]
		// Mirror the partitioner's axis handling: 1-D data degenerates the
		// second axis to the first axis' minimum.
		h.Lo[1], h.Hi[1] = bbox.Lo[0], bbox.Lo[0]
		if s.dim >= 2 {
			h.Lo[1], h.Hi[1] = bbox.Lo[1], bbox.Hi[1]
		}
	}
	m.Kind, m.Hilbert = snapshot.KindSharded, h
	return m, trees
}

// SetFromSnapshotBorrowed reconstructs a set from a decoded snapshot of
// either kind: a plain snapshot becomes an unpartitioned set, a sharded
// one a partitioned set with the Hilbert partition intact (each shard
// keeps exactly the points, page range and node structure it was written
// with). Every arena borrows the snapshot's slices (for a mapped open,
// the file mapping itself) via rtree.PackedFromSnapshotBorrowed. All
// shards share cfg.Accountant (one allocated here when nil), so cost
// accounting stays exactly additive across the partition, as after
// Build. verify is the whole-snapshot deferred validation
// (snapshot.Adopted.Verify — internally once-only, so sharing it across
// all shards costs one verification); it must succeed, through
// Set.Prepare, before the first query. The caller owns the backing
// buffer's lifetime.
func SetFromSnapshotBorrowed(m snapshot.Manifest, trees []*snapshot.Tree, cfg rtree.Config, verify func() error) (*Set, error) {
	if len(trees) < 1 {
		return nil, fmt.Errorf("shard: snapshot with no trees")
	}
	if cfg.Accountant == nil {
		cfg.Accountant = pagestore.NewAccountant(0)
	}
	if m.Kind == snapshot.KindPlain {
		p, err := rtree.PackedFromSnapshotBorrowed(trees[0], m.Dim, cfg, verify)
		if err != nil {
			return nil, err
		}
		return single(p), nil
	}
	s := &Set{arenas: make([]*rtree.Packed, len(trees)), dim: m.Dim, size: m.Points, partitioned: true}
	for i, st := range trees {
		p, err := rtree.PackedFromSnapshotBorrowed(st, m.Dim, cfg, verify)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.arenas[i] = p
	}
	return s, nil
}
