package gnn

import "time"

// Stats is a point-in-time summary of an index's shape and serving
// state, independent of query traffic (cost counters live in Cost).
// gnnquery prints it after loading a snapshot; it is equally useful for
// operational logging.
type Stats struct {
	// Points is the number of live data points: base points not masked by
	// a delete tombstone, plus overlay inserts.
	Points int
	// Dim is the point dimensionality.
	Dim int
	// Packed reports whether the index has its packed SoA base: false
	// only for a NewIndex before its first read. Overlay writes do not
	// unset it: the base arena keeps serving, with the delta sources
	// merged in.
	Packed bool
	// Shards is the shard count of a ShardedIndex; 0 for a plain Index.
	Shards int
	// Height is the R-tree height in levels (the maximum across shards).
	Height int
	// Nodes is the total R-tree node count across the packed arena(s);
	// 0 before a NewIndex's first read (its insertion builder keeps no
	// node counter).
	Nodes int
	// ArenaBytes is the size of the packed arena(s): exactly the column
	// payload a snapshot serialises, the columns being the arena's only
	// copy of the points; 0 before a NewIndex's first read.
	ArenaBytes int64
	// Delta is the number of overlay-inserted points not yet folded into
	// a compacted base (delta tree plus pending tail).
	Delta int
	// Tombstones is the number of base occurrences masked by a delete
	// tombstone.
	Tombstones int
	// CompactGen counts completed compaction cycles since the index was
	// opened.
	CompactGen uint64
	// LastCompaction is the wall-clock duration of the most recent
	// compaction cycle; 0 before the first.
	LastCompaction time.Duration
	// LastCompactionError is the error string of the most recent
	// compaction cycle, "" when it succeeded (or none ran). A failed
	// snapshot rotation shows up here while in-memory serving continues.
	LastCompactionError string
}

// compactStats fills the shared compaction counters.
func (s *Stats) compactStats(gen uint64, ns int64, errp *string) {
	s.CompactGen = gen
	s.LastCompaction = time.Duration(ns)
	if errp != nil {
		s.LastCompactionError = *errp
	}
}

// Stats reports the index's current shape and serving state.
func (ix *Index) Stats() Stats {
	v := ix.view.Load()
	s := Stats{
		Points: ix.Len(),
		Dim:    ix.Dim(),
		Height: v.tree.Height(),
	}
	if p := v.packed; p != nil {
		s.Packed = true
		s.Nodes = p.Nodes()
		s.ArenaBytes = p.ArenaBytes()
	}
	if v.ov != nil {
		s.Delta = len(v.ov.pts)
		s.Tombstones = v.ov.tombs.Total()
	}
	s.compactStats(ix.compactGen.Load(), ix.compactNS.Load(), ix.compactErr.Load())
	return s
}
