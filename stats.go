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
	// Shards is the shard count of a partitioned index (BuildShardedIndex,
	// or a sharded snapshot); 0 for an unpartitioned one. Compaction keeps
	// it.
	Shards int
	// Height is the R-tree height in levels (the maximum across shards);
	// 0 before a NewIndex's first read, which builds the tree.
	Height int
	// Nodes is the total R-tree node count across the packed arena(s);
	// 0 before a NewIndex's first read.
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

// Stats reports the index's current shape and serving state. On a
// partitioned index Height is the maximum shard height and
// Nodes/ArenaBytes sum over the shards.
func (ix *Index) Stats() Stats {
	v := ix.view.Load()
	s := Stats{
		Points:         ix.Len(),
		Dim:            ix.Dim(),
		CompactGen:     ix.compactGen.Load(),
		LastCompaction: time.Duration(ix.compactNS.Load()),
	}
	if errp := ix.compactErr.Load(); errp != nil {
		s.LastCompactionError = *errp
	}
	if v != nil {
		s.Packed = true
		s.Shards = v.Shards()
		for _, p := range v.Arenas() {
			s.Height = max(s.Height, p.Height())
			s.Nodes += p.Nodes()
			s.ArenaBytes += p.ArenaBytes()
		}
		s.Delta, s.Tombstones = v.Overlay()
	}
	return s
}
